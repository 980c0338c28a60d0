let check ?(extensions = true) ?index ?vindex ?memo schema inst =
  Content_legality.check schema inst
  @ Structure_legality.check ?index ?vindex ?memo schema inst
  @
  if extensions then
    Single_valued.check schema inst @ Keys.check schema inst
  else []

let is_legal ?extensions ?index ?vindex ?memo schema inst =
  check ?extensions ?index ?vindex ?memo schema inst = []
