;;; One medium spelled html, :HTML and ::html, and a locale spelled ::X:
;;; case and every leading ':' are ignored, so each is one symbol.

(locale Root :parent none)
(locale ::X :parent ::root)

(widget title ::x :table ::pages
  :heading (html "Title")
  :input ((:HTML identity (length 1 20)))
  :output ((::html string-upcase)))
