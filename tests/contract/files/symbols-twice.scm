;;; A clause that spells one medium twice, as html and as ::html.

(widget title root :table pages
  :output ((html identity)
           (::html string-upcase)))
