"""HTTP rule console — the reference web UI's server surface
(reference: uniparser/webui.py:48-134, fastapi_ui/views.py:53-135) on
the stdlib ``http.server`` (no web framework in the sandbox).

The console is a driver-side dev tool, not a data-plane component: one
process, one :class:`RuleVM`, download-once / parse-many against a
sticky per-server context — exactly the reference's workflow:

* ``POST /request``    body = CrawlerRule JSON → download once, stash
  ``resp``/``request_args`` in the server context, return the text.
* ``POST /parse``      body = ``{"input_object": …, "rule": <rule JSON
  string>}`` → parse against the sticky context, return
  ``{type, data, json}``.
* ``POST /curl_parse`` body = curl command string → request_args dict.
* ``GET  /``           parser registry: name → docstring + the input
  callback names (the data the reference's index template renders).

Run: ``python -m uniparser_ray serve --port 8080``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .config import EngineConfig
from .rulevm.request import ensure_request
from .rulevm.rules import CrawlerRule
from .rulevm.vm import InputCallbacks, RuleVM


class ConsoleState:
    """One VM + one sticky context per server (reference webui.py keeps
    a module-global ``CONTEXT`` refreshed by each /request)."""

    def __init__(self, request_adapter=None):
        self.vm = RuleVM()
        if request_adapter is not None:
            self.vm.request_adapter = request_adapter
        self.context: dict = EngineConfig.init_context()
        self.lock = threading.Lock()

    # -- endpoint logic (framework-free, directly testable) ------------

    def do_request(self, payload: dict) -> dict:
        rule = CrawlerRule(**payload)
        regex = rule["regex"]
        url = rule["request_args"].get("url", "")
        if not regex or not rule.check_regex(url):
            msg = (f"Download completed, but the regex `{regex}` does not "
                   f"match the given url: {url}")
        else:
            msg = ""
        input_object, resp = self.vm.download(rule)
        with self.lock:
            self.context.clear()
            self.context.update(EngineConfig.init_context())
            self.context["request_args"] = rule["request_args"]
            self.context["resp"] = resp
        headers = getattr(resp, "headers", {}) or {}
        text = str(input_object)
        status_code = getattr(resp, "status_code", 0)
        return {
            "text": text,
            "status": (f"[{status_code}] | "
                       f"Content-Length={headers.get('Content-Length', len(text))} | "
                       f"Content-Type={headers.get('Content-Type', '')}"),
            "ok": status_code in range(200, 300),
            "msg": msg,
        }

    def do_parse(self, payload: dict) -> dict:
        input_object = payload["input_object"]
        rule_json = payload["rule"]
        try:
            rule = CrawlerRule.loads(rule_json)
            with self.lock:
                context = self.context
            result = self.vm.parse(input_object, rule, context=context)
            try:
                json_result = json.dumps(result, default=repr, indent=2,
                                         ensure_ascii=False)
            except Exception as e:
                json_result = repr(e)
            return {"type": str(type(result)), "data": repr(result),
                    "json": json_result}
        except Exception as err:
            import traceback
            return {"type": str(type(err)), "data": repr(err),
                    "json": traceback.format_exc()}

    def do_curl_parse(self, body: str) -> dict:
        result = ensure_request(body)
        if isinstance(body, str) and body.startswith("http"):
            result.setdefault("headers",
                              {"User-Agent": EngineConfig.DEFAULT_UA})
        return {"result": result, "ok": True}

    def do_index(self) -> dict:
        docs = {name: (parser.__doc__ or "").strip()
                for name, parser in self.vm.parsers.items()}
        return {"parsers": sorted(docs),
                "docs": docs,
                "cb_names": " | ".join(InputCallbacks._CALLBACKS)}


# The reference serves an interactive page + /static assets
# (reference: webui.py:101-134, templates/index.html + the
# static/uniparser.js rule-field editor and input-callback dropdown);
# here the page is one self-contained document (inline CSS/JS, no
# asset routes) driving the same three endpoints — the download-once /
# parse-many loop from a browser, plus a structured parse-rule editor
# that BUILDS chain_rules into the rule JSON and a per-parser doc
# panel.  GET / content-negotiates: browsers (Accept: text/html) get
# the page, API clients keep the JSON parser registry.  Rendered by
# token replacement (%TOKEN%), not str.format, so the inline JS keeps
# natural braces.
_INDEX_HTML = """<!doctype html>
<html><head><meta charset="utf-8"><title>uniparser_ray console</title>
<style>
 body { font-family: monospace; margin: 1.5em; max-width: 70em; }
 textarea, input[type=text] { width: 100%; font-family: monospace; }
 pre { background: #f4f4f4; padding: .6em; white-space: pre-wrap; }
 button { margin: .3em .5em .8em 0; }
 details { margin-bottom: 1em; }
 table.ed { border-collapse: collapse; width: 100%; }
 table.ed td { padding: .15em .3em; }
 #pdoc { color: #444; background: #fbfbf0; }
</style></head><body>
<h2>uniparser_ray rule console</h2>
<p>download once (<code>/request</code>), parse many
(<code>/parse</code>) against the sticky context; convert curl
commands (<code>/curl_parse</code>).</p>
<details><summary>parser registry (%N_PARSERS% parsers;
input callbacks: %CB_NAMES%)</summary><pre>%REGISTRY%</pre></details>
<label>CrawlerRule JSON</label>
<textarea id="rule" rows="12">%EXAMPLE%</textarea>
<details open><summary>parse-rule editor (builds chain_rules into the
rule JSON above)</summary>
<label>field name</label>
<input type="text" id="f_name" value="field1">
<table class="ed" id="steps"></table>
<button onclick="addStep()">+ chain step</button>
<button onclick="insertField()">insert field into rule</button>
<pre id="pdoc"></pre>
<label>input callback (request_args.input_callback)</label>
<select id="cb" onchange="setCallback()"></select>
</details>
<button onclick="doRequest()">Download (/request)</button>
<button onclick="doParse()">Parse (/parse)</button>
<label>input_object (filled by Download; editable)</label>
<textarea id="input" rows="6"></textarea>
<label>curl command</label>
<input type="text" id="curl" value="curl http://example.com/">
<button onclick="doCurl()">Convert (/curl_parse)</button>
<h3>result</h3><pre id="out"></pre>
<script>
const PARSERS = %PARSERS_JSON%;
const DOCS = %DOCS_JSON%;
const CALLBACKS = %CBS_JSON%;
const out = (o) => document.getElementById('out').textContent =
    typeof o === 'string' ? o : JSON.stringify(o, null, 2);
async function post(path, body, raw) {
  const resp = await fetch(path, {method: 'POST',
      body: raw ? body : JSON.stringify(body)});
  return resp.json();
}
async function doRequest() {
  try {
    const r = await post('/request',
        JSON.parse(document.getElementById('rule').value));
    if (typeof r.text === 'string')
      document.getElementById('input').value = r.text;
    out(r);
  } catch (e) { out(String(e)); }
}
async function doParse() {
  try {
    out(await post('/parse', {
        input_object: document.getElementById('input').value,
        rule: document.getElementById('rule').value}));
  } catch (e) { out(String(e)); }
}
async function doCurl() {
  try {
    out(await post('/curl_parse',
        document.getElementById('curl').value, true));
  } catch (e) { out(String(e)); }
}
// --- rule-field editor (reference static/uniparser.js behaviors) ---
function showDoc(name) {
  document.getElementById('pdoc').textContent =
      name && DOCS[name] ? name + ':\\n' + DOCS[name] : '';
}
function addStep() {
  const tr = document.createElement('tr');
  const sel = document.createElement('select');
  for (const p of PARSERS) {
    const o = document.createElement('option');
    o.value = o.textContent = p;
    sel.appendChild(o);
  }
  sel.onchange = () => showDoc(sel.value);
  const mk = (ph) => {
    const i = document.createElement('input');
    i.type = 'text'; i.placeholder = ph;
    return i;
  };
  const rm = document.createElement('button');
  rm.textContent = 'x';
  rm.onclick = () => tr.remove();
  for (const el of [sel, mk('pattern (param)'), mk('value'), rm]) {
    const td = document.createElement('td');
    td.appendChild(el);
    tr.appendChild(td);
  }
  document.getElementById('steps').appendChild(tr);
  showDoc(sel.value);
}
function readSteps() {
  const rows = [];
  for (const tr of document.querySelectorAll('#steps tr')) {
    const [sel, pat, val] = tr.querySelectorAll('select, input');
    rows.push([sel.value, pat.value, val.value]);
  }
  return rows;
}
function insertField() {
  try {
    const rule = JSON.parse(document.getElementById('rule').value);
    rule.parse_rules = rule.parse_rules || [];
    rule.parse_rules.push({
        name: document.getElementById('f_name').value || 'field',
        chain_rules: readSteps(),
        child_rules: []});
    document.getElementById('rule').value =
        JSON.stringify(rule, null, 1);
    out('field inserted: ' + rule.parse_rules.length + ' parse_rules');
  } catch (e) { out(String(e)); }
}
function setCallback() {
  try {
    const rule = JSON.parse(document.getElementById('rule').value);
    const cb = document.getElementById('cb').value;
    rule.request_args = rule.request_args || {};
    if (cb) rule.request_args.input_callback = cb;
    else delete rule.request_args.input_callback;
    document.getElementById('rule').value =
        JSON.stringify(rule, null, 1);
  } catch (e) { out(String(e)); }
}
(function init() {
  const sel = document.getElementById('cb');
  for (const name of [''].concat(CALLBACKS)) {
    const o = document.createElement('option');
    o.value = o.textContent = name;
    sel.appendChild(o);
  }
  addStep();
})();
</script></body></html>"""

_EXAMPLE_RULE = {
    "name": "example",
    "request_args": {"url": "http://example.com/", "method": "get"},
    "parse_rules": [
        {"name": "title",
         "chain_rules": [["css", "title", "$text"],
                         ["python", "getitem", "[0]"]],
         "child_rules": []}],
    "regex": "^http://example.com/",
}


def render_index(idx: dict) -> str:
    """The console page for a ``do_index()`` registry.  Every
    ``%TOKEN%`` is substituted in ONE pass, so inserted content (a
    parser docstring that mentions a token) is never re-scanned."""
    import re
    registry = "\n".join(
        f"{name}: {idx['docs'][name].splitlines()[0] if idx['docs'][name] else ''}"
        for name in idx["parsers"])
    esc = lambda s: s.replace("&", "&amp;").replace("<", "&lt;")
    # json.dumps with <-escaping keeps the inline <script> payload
    # safe regardless of docstring content
    jjs = lambda o: json.dumps(o, ensure_ascii=False).replace("<", "\\u003c")
    cbs = [c for c in idx["cb_names"].split(" | ") if c]
    values = {
        "N_PARSERS": str(len(idx["parsers"])),
        "CB_NAMES": esc(idx["cb_names"]),
        "REGISTRY": esc(registry),
        "EXAMPLE": esc(json.dumps(_EXAMPLE_RULE, indent=1)),
        "PARSERS_JSON": jjs(idx["parsers"]),
        "DOCS_JSON": jjs(idx["docs"]),
        "CBS_JSON": jjs(cbs),
    }
    return re.sub(r"%([A-Z_]+)%",
                  lambda m: values.get(m.group(1), m.group(0)), _INDEX_HTML)


class _Handler(BaseHTTPRequestHandler):
    state: ConsoleState = None  # injected by make_server

    def _reply_html(self, html: str, code=200):
        body = html.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, obj, code=200):
        body = json.dumps(obj, default=repr, ensure_ascii=False).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length)

    def do_GET(self):
        if self.path.rstrip("/") in ("", "/"):
            accept = self.headers.get("Accept", "")
            if "text/html" in accept:
                html = render_index(self.state.do_index())
                self._reply_html(html)
            else:
                self._reply(self.state.do_index())
        else:
            self._reply({"error": f"unknown path {self.path!r}"}, 404)

    def do_POST(self):
        raw = self._body()
        try:
            if self.path == "/request":
                self._reply(self.state.do_request(json.loads(raw)))
            elif self.path == "/parse":
                self._reply(self.state.do_parse(json.loads(raw)))
            elif self.path == "/curl_parse":
                self._reply(self.state.do_curl_parse(raw.decode("utf-8")))
            else:
                self._reply({"error": f"unknown path {self.path!r}"}, 404)
        except Exception as e:  # error-as-value like every other surface
            self._reply({"error_type": type(e).__name__, "error": str(e)},
                        500)

    def log_message(self, fmt, *args):  # quiet by default
        pass


def make_server(host="127.0.0.1", port=8080,
                request_adapter=None) -> ThreadingHTTPServer:
    """Build (don't start) the console server; ``request_adapter`` lets
    tests plug the synthetic web in place of real HTTP."""
    state = ConsoleState(request_adapter=request_adapter)
    handler = type("ConsoleHandler", (_Handler,), {"state": state})
    return ThreadingHTTPServer((host, port), handler)


def serve(host="127.0.0.1", port=8080, request_adapter=None):
    server = make_server(host, port, request_adapter)
    try:
        server.serve_forever()
    finally:
        server.server_close()
