;;; Widgets that show passes over: one stored only through a setter, and
;;; one with a formatter for one medium only.

(locale nation :parent none)
(locale state :parent nation)

(widget entry nation :setter person-name-to-fields
  :heading (default "Entry"))

(widget sid nation :table people
  :heading (default "SID")
  :generator gen-sid
  :input ((default identity alphanumeric))
  :output ((default identity)))

(widget nick state :table people :index 3
  :heading (default "Nick")
  :input ((default identity always-ok))
  :output ((paper identity)))
