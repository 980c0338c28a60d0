let check ?(extensions = true) ?index ?vindex ?memo ?memoize schema inst =
  Content_legality.check schema inst
  @ Structure_legality.check ?index ?vindex ?memo ?memoize schema inst
  @
  if extensions then
    Single_valued.check schema inst @ Keys.check schema inst
  else []

let is_legal ?extensions ?index ?vindex ?memo ?memoize schema inst =
  check ?extensions ?index ?vindex ?memo ?memoize schema inst = []
