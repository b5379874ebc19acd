"""No call from the compiled engine core into Python bypasses the hand-off.

While ``run()`` lasts the core keeps the clock and the seq counter in C
and publishes them only inside ``call_out``. A direct ``PyObject_Call*``
or ``PyObject_Vectorcall*`` anywhere else in the engine part of
``_engine_core.c`` could run Python that reads a stale ``engine.now`` or
takes a seq the core hands out again, and no digest would show it until
some model happened to do so. This reads the source instead.

Below the engine, the array kernels (the partitioner's FM pass, matching
and region growing, and the cheap balancers' loops) call no Python at
all: they are pure C over buffers, and an attribute lookup or a call in
one of their loops would put the interpreter back on the per-task path
they exist to leave.
"""

import pathlib
import re

SOURCE = pathlib.Path(__file__).parents[2] / "src" / "repro" / "simulate" / "_engine_core.c"

#: Where the engine ends and the array kernels begin: the partitioner's FM
#: pass, matching and region growing, then the semi-matching and LPT loops.
FM_BANNER = "One Fiduccia-Mattheyses pass"

#: Where the array kernels end: the module's method table and init.
KERNELS_END = "static PyMethodDef core_methods"

#: The functions allowed to call an object: the hand-off itself,
#: ``call_c`` for callees that run no Python code, and ``FusedOp.close``,
#: which only Python calls (a generator's close), so whatever the core
#: holds is already published when it releases the op's NIC.
CALLERS = {"call_out", "call_c", "fusedop_close"}

#: Every ``call_c(callable, name, ...)`` use, by its first two arguments.
#: All are C-only: heapq's C functions on the engine heap of
#: (float, int, callback) tuples, whose unique seqs keep a compare off the
#: callback, and methods of an exact ``collections.deque`` (``pop_ready``
#: is the bound ``popleft`` of ``engine._ready``, which ``core_run``
#: requires to be one; ``append`` and ``clear`` go to ``engine._ready`` or,
#: through ``queue_append``, to a queue checked to be one).
C_ONLY = {
    ("g_heappush", "NULL"),
    ("g_heappop", "NULL"),
    ("pop_ready", "NULL"),
    ("NULL", "s_append"),
    ("NULL", "s_clear"),
}

CALL = re.compile(r"\b_?(PyObject_(Call|Vectorcall)\w*|PyEval_Call\w*)\s*\(")
#: What the array kernels may not use: a call or an attribute lookup.
PYTHON = re.compile(
    r"\b_?(PyObject_(Call|Vectorcall|GetAttr)\w*|PyEval_Call\w*)\s*\("
)
CALL_C = re.compile(r"\bcall_c\(\s*([^,]+?)\s*,\s*([^,]+?)\s*,")
DEFINITION = re.compile(r"^(\w+)\(")


def _engine_functions():
    """``{name: body}`` of every function above the FM banner."""
    text = SOURCE.read_text(encoding="utf-8")
    engine = text[: text.index(FM_BANNER)]
    functions, name, body = {}, None, []
    for line in engine.splitlines():
        match = DEFINITION.match(line)
        if match and name is None:
            name, body = match.group(1), []
        if name is not None:
            body.append(line)
            if line == "}":
                functions[name] = "\n".join(body)
                name = None
    return functions, engine


def test_functions_are_found():
    functions, _ = _engine_functions()
    assert {"call_out", "call_c", "core_run", "resume_fast", "fused_advance"} <= set(functions)


def test_only_the_hand_off_calls_an_object():
    functions, engine = _engine_functions()
    offenders = {
        name for name, body in functions.items() if CALL.search(body) and name not in CALLERS
    }
    assert offenders == set(), f"call Python through call_out: {sorted(offenders)}"
    # nothing outside a function body either (a macro, a static initialiser)
    outside = CALL.findall(engine)
    inside = [hit for body in functions.values() for hit in CALL.findall(body)]
    assert len(outside) == len(inside)


def test_call_c_reaches_only_c():
    functions, _ = _engine_functions()
    uses = {
        (callable_, name)
        for fn, body in functions.items()
        if fn != "call_c"
        for callable_, name in CALL_C.findall(body)
    }
    assert uses and uses <= C_ONLY, sorted(uses - C_ONLY)
    # heappush/heappop are C only when they come from _heapq: the plain
    # heapq module would hand them over as Python functions where _heapq
    # is missing, so the core imports _heapq alone and fails without it.
    text = SOURCE.read_text(encoding="utf-8")
    assert 'PyImport_ImportModule("_heapq")' in text and '"heapq"' not in text


def test_array_kernels_call_no_python():
    text = SOURCE.read_text(encoding="utf-8")
    kernels = text[text.index(FM_BANNER) : text.index(KERNELS_END)]
    for name in (
        "fm_run",
        "hc_run",
        "core_hc_matching",
        "grow_run",
        "core_grow_region",
        "greedy_run",
        "sweep_run",
        "core_lpt",
        "core_semi_matching_sweep",
    ):
        assert f"\n{name}(" in kernels, name
    offenders = sorted({m.group(0) for m in PYTHON.finditer(kernels)})
    assert offenders == [], f"the array kernels reach into the interpreter: {offenders}"
