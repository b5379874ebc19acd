/* Compiled run loop for repro.simulate.engine.Engine.
 *
 * This extension moves the hottest frames of the discrete-event
 * simulator -- Engine.run(), the Process.resume() Timeout fast path, and
 * Resource._deliver_grant() -- out of the interpreter. It operates on
 * the *same* data layout as the pure-Python engine (the `_heap` list of
 * (time, seq, callback) tuples, the `_ready` deque of (seq, callback,
 * arg) tuples, the `_seq` counter, the `now` float and the dispatch
 * counters), so Python-side scheduling (SimEvent.fire, Resource grants,
 * call_now from callbacks) interleaves with the C loop exactly as it does
 * with the Python loop. Attributes are read and written where Python keeps them: a
 * `__slots__` member is loaded and stored at the byte offset its class's
 * own member descriptor states (get_attr/set_attr below); everything
 * else -- an unset slot, a shadowed name, a duck-typed collaborator, a
 * class mutated since -- goes through PyObject_GetAttr/SetAttr, so
 * errors and fallbacks are the attribute protocol's own.
 *
 * Two C-side structures exist only *inside* one core_run() call:
 *
 * - the **timeout-event heap**: a binary heap of plain C structs
 *   {time, seq, process} fed by the resume fast path. A timed Timeout
 *   wake-up costs no tuple, no PyFloat/PyLong boxing for the key, and
 *   no heapq call; the struct array doubles as its own freelist (slots
 *   are reused in place and the buffer is recycled across runs). Events
 *   still pending when the loop exits (horizon stop, exception) are
 *   flushed back into the Python heap as ordinary tuples, so the
 *   engine's observable state after run() is identical to the Python
 *   engine's.
 *
 * - consumed ``Timeout`` *request objects* are recycled into the
 *   Python-side freelist shared with ``Timeout.__new__`` when their
 *   refcount proves sole ownership -- the C half of the allocation-free
 *   Timeout cycle.
 *
 * Bit-for-bit contract: every control-flow branch here mirrors a line of
 * Engine.run / Process.resume / Resource._deliver_grant; `now + delay`
 * is the same IEEE-754 double addition CPython performs; seq allocation
 * and the heap/run-queue interleave rule are identical (the C heap and
 * the Python heap are merged by the full (time, seq) key, and seqs are
 * globally unique). The golden-digest suites are run under
 * REPRO_ENGINE=compiled in CI to pin this.
 *
 * The same extension carries the partitioner's FM refinement pass
 * (fm_pass, at the end of this file): plain arrays in, nothing shared
 * with the engine but the build, selected by the same REPRO_ENGINE mode.
 *
 * Built on demand by repro.simulate.sched (cc -O2 -fPIC -shared); no
 * third-party headers, C99 + Python.h only.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <structmember.h> /* T_OBJECT_EX */

/* Registered by setup(): the engine's collaborator classes. */
static PyObject *g_process_cls = NULL;
static PyObject *g_timeout_cls = NULL;
static PyObject *g_request_cls = NULL;
static PyObject *g_sim_error = NULL;
static PyObject *g_resume_func = NULL;  /* Process.resume, the plain function */
static PyObject *g_deliver_func = NULL; /* Resource._deliver_grant, plain function */
static PyObject *g_timeout_pool = NULL; /* engine._timeout_pool, shared freelist */
static PyObject *g_fusedop_cls = NULL;  /* network._FusedOp */
static PyObject *g_advance_func = NULL; /* _FusedOp._advance, plain function */
static PyObject *g_resource_cls = NULL; /* engine.Resource */
static PyObject *g_trace_cls = NULL;    /* runtime.trace.TraceRecorder */
static PyObject *g_heappush = NULL;
static PyObject *g_heappop = NULL;

/* Where instances of `type` keep one `__slots__` member. */
typedef struct {
    PyTypeObject *type;   /* compared, never dereferenced */
    unsigned int version; /* type->tp_version_tag when resolved */
    Py_ssize_t offset;    /* of the PyObject* in the instance; -1: not native */
} SlotWay;

/* An interned attribute name plus where the two types last seen with it
 * keep it (`done` and `engine` are read on Process and on _FusedOp; no
 * name is hot on three). Declared as one-element arrays so a name is
 * passed by pointer without `&`. */
typedef struct {
    PyObject *str;
    SlotWay way[2];
} AttrName;

static AttrName s_heap[1], s_ready[1], s_seq[1], s_now[1];
static AttrName s_events_dispatched[1], s_ready_dispatched[1];
static AttrName s_timeout_allocs[1], s_grant_resumes[1];
static AttrName s_done[1], s_cancelled[1], s_send[1], s_resume_attr[1], s_engine[1];
static AttrName s_delay[1], s_name[1], s_value[1];
static AttrName s_pre[1], s_nic[1], s_hold[1], s_post[1], s_trace[1], s_src[1];
static AttrName s_category[1], s_counter[1], s_amount[1], s_proc[1], s_start[1];
static AttrName s_phase[1], s_idx[1], s_holding[1], s_result[1], s_step[1];
static AttrName s_chain[1], s_pos[1], s_end[1], s_duration[1], s_tid[1], s_claim[1];
static AttrName s_in_use[1], s_capacity[1], s_total_acquisitions[1];
static AttrName s_total_waits[1], s_queue[1];
static AttrName s_totals[1], s_intervals[1], s_records[1];

/* Interned method names: always looked up through the type. */
static PyObject *s_popleft, *s_append, *s_finish, *s_activate, *s_release;
static PyObject *s_resume_pub, *s_advance_name, *s_deliver_name, *s_record;
static PyObject *s_record_compute;

/* What firing a C-held event means. */
enum { EV_RESUME = 0, EV_FUSED = 1 };

/* One timed wake-up held C-side: at (time, seq), either resume a
 * Process (EV_RESUME) or advance a fused network op (EV_FUSED). */
typedef struct {
    double time;
    long long seq;
    PyObject *obj; /* owned: the Process or the _FusedOp */
    int kind;
} CEvent;

typedef struct {
    PyObject *engine;       /* borrowed */
    PyObject *heap;         /* owned; the engine's _heap list */
    PyObject *ready;        /* owned; the engine's _ready deque */
    PyObject *ready_append; /* owned; bound _ready.append */
    CEvent *ch;             /* C timeout-event heap (binary heap array) */
    Py_ssize_t ch_len, ch_cap;
    int ch_owned; /* buffer is ours to free (spare was busy) */
    /* Fast-path counter *deltas*, folded into the engine attributes on
     * exit. Deltas, not absolutes: Python code running inside a
     * dispatched callback (e.g. Resource._deliver_grant resuming a
     * process through Python Process.resume) bumps the attributes
     * directly, and an absolute writeback would erase those increments. */
    long long timeout_allocs;
    long long grants;
} RunCtx;

/* Buffer recycled across runs: engine runs do not nest in practice, so
 * one process-wide spare avoids a malloc per run(). */
static CEvent *g_spare = NULL;
static Py_ssize_t g_spare_cap = 0;
static int g_spare_busy = 0;

static int
cheap_push(RunCtx *ctx, double time, long long seq, PyObject *obj, int kind)
{
    if (ctx->ch_len == ctx->ch_cap) {
        Py_ssize_t cap = ctx->ch_cap ? ctx->ch_cap * 2 : 256;
        CEvent *data = (CEvent *)realloc(ctx->ch, (size_t)cap * sizeof(CEvent));
        if (data == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ctx->ch = data;
        ctx->ch_cap = cap;
    }
    CEvent *ch = ctx->ch;
    Py_ssize_t i = ctx->ch_len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        CEvent *p = &ch[parent];
        if (p->time < time || (p->time == time && p->seq < seq))
            break;
        ch[i] = *p;
        i = parent;
    }
    ch[i].time = time;
    ch[i].seq = seq;
    Py_INCREF(obj);
    ch[i].obj = obj;
    ch[i].kind = kind;
    return 0;
}

/* Pop the minimal (time, seq) entry; caller owns the returned obj ref.
 * Only call with ch_len > 0. */
static CEvent
cheap_pop(RunCtx *ctx)
{
    CEvent *ch = ctx->ch;
    CEvent top = ch[0];
    Py_ssize_t len = --ctx->ch_len;
    if (len > 0) {
        CEvent last = ch[len];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= len)
                break;
            if (child + 1 < len) {
                CEvent *a = &ch[child], *b = &ch[child + 1];
                if (b->time < a->time || (b->time == a->time && b->seq < a->seq))
                    child += 1;
            }
            CEvent *c = &ch[child];
            if (last.time < c->time || (last.time == c->time && last.seq < c->seq))
                break;
            ch[i] = *c;
            i = child;
        }
        ch[i] = last;
    }
    return top;
}

/* ---- native slot access ---- */

/* Whether `tp` currently holds a valid version tag. */
#if PY_VERSION_HEX >= 0x030D0000 /* 3.13 dropped the flag: 0 is "no tag" */
#define TYPE_VERSIONED(tp) ((tp)->tp_version_tag != 0)
#else
#define TYPE_VERSIONED(tp) PyType_HasFeature(tp, Py_TPFLAGS_VALID_VERSION_TAG)
#endif

/*
 * Resolve `name` on type(obj) the way PyObject_GenericGetAttr would: the
 * first class in the MRO whose dict has the name decides. Only a
 * writable T_OBJECT_EX member descriptor that class created for itself
 * (what `__slots__` makes) on a type with the generic attribute hooks is
 * native; its offset comes from the descriptor and is checked against
 * the instance size. Anything else is remembered as "not native". The
 * answer holds while the type keeps its version tag, which CPython
 * retires whenever the type or any base is modified.
 * Returns the member's address, or NULL to use the attribute protocol. */
static PyObject **
slot_resolve(PyObject *obj, AttrName *name)
{
    PyTypeObject *tp = Py_TYPE(obj);
    /* No tag yet (the first lookup assigns one) or none left to give. */
    if (!TYPE_VERSIONED(tp))
        return NULL;
    Py_ssize_t offset = -1;
    PyObject *mro = tp->tp_mro;
    if (tp->tp_getattro == PyObject_GenericGetAttr &&
        tp->tp_setattro == PyObject_GenericSetAttr && mro != NULL) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(mro); i++) {
            PyTypeObject *base = (PyTypeObject *)PyTuple_GET_ITEM(mro, i);
            if (base->tp_dict == NULL)
                break; /* a static builtin (3.12+): cannot see, not native */
            PyObject *descr = PyDict_GetItemWithError(base->tp_dict, name->str);
            if (descr == NULL) {
                if (PyErr_Occurred()) {
                    PyErr_Clear();
                    break;
                }
                continue;
            }
            if (Py_IS_TYPE(descr, &PyMemberDescr_Type) &&
                PyDescr_TYPE(descr) == base) {
                PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
                if (m->type == T_OBJECT_EX && m->flags == 0 &&
                    m->offset >= (Py_ssize_t)sizeof(PyObject) &&
                    m->offset + (Py_ssize_t)sizeof(PyObject *) <= tp->tp_basicsize)
                    offset = m->offset;
            }
            break;
        }
    }
    if (name->way[0].type != tp) /* else: this type again, re-versioned */
        name->way[1] = name->way[0];
    name->way[0].type = tp;
    name->way[0].version = tp->tp_version_tag;
    name->way[0].offset = offset;
    return offset < 0 ? NULL : (PyObject **)((char *)obj + offset);
}

static inline PyObject **
slot_addr(PyObject *obj, AttrName *name)
{
#ifdef Py_GIL_DISABLED
    return NULL; /* free-threaded builds version types differently */
#else
    PyTypeObject *tp = Py_TYPE(obj);
    SlotWay *w = name->way;
    if ((w->type != tp && (++w)->type != tp) ||
        w->version != tp->tp_version_tag || !TYPE_VERSIONED(tp))
        return slot_resolve(obj, name);
    return w->offset < 0 ? NULL : (PyObject **)((char *)obj + w->offset);
#endif
}

/* obj.<name>: a new reference, or NULL with the attribute protocol's own
 * exception (an unset slot raises its AttributeError from there). */
static PyObject *
get_attr(PyObject *obj, AttrName *name)
{
    PyObject **p = slot_addr(obj, name);
    if (p != NULL && *p != NULL)
        return Py_NewRef(*p);
    return PyObject_GetAttr(obj, name->str);
}

/* obj.<name> = value */
static int
set_attr(PyObject *obj, AttrName *name, PyObject *value)
{
    PyObject **p = slot_addr(obj, name);
    if (p == NULL)
        return PyObject_SetAttr(obj, name->str, value);
    PyObject *old = *p;
    *p = Py_NewRef(value);
    Py_XDECREF(old);
    return 0;
}

static int
get_ll(PyObject *obj, AttrName *name, long long *out)
{
    PyObject *v = get_attr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
set_ll(PyObject *obj, AttrName *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = set_attr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
get_double(PyObject *obj, AttrName *name, double *out)
{
    PyObject *v = get_attr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
set_double(PyObject *obj, AttrName *name, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v == NULL)
        return -1;
    int rc = set_attr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* obj.<name> += 1 through attribute access (the rare cross-engine path). */
static int
bump_ll_attr(PyObject *obj, AttrName *name)
{
    long long v;
    if (get_ll(obj, name, &v) < 0)
        return -1;
    return set_ll(obj, name, v + 1);
}

/* Extract (time, seq) from a heap entry; rejects malformed entries. */
static int
entry_key(PyObject *entry, double *time, long long *seq)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "engine heap entry is not a (time, seq, callback) tuple");
        return -1;
    }
    *time = PyFloat_AsDouble(PyTuple_GET_ITEM(entry, 0));
    if (*time == -1.0 && PyErr_Occurred())
        return -1;
    *seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
    if (*seq == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int fused_activate(RunCtx *ctx, PyObject *op, PyObject *proc);
static int fused_advance(RunCtx *ctx, PyObject *op);
static int fused_resume(RunCtx *ctx, PyObject *op);

/* Process.resume(value), compiled. Returns 0 on success, -1 with an
 * exception set on failure. Mirrors the Python method line for line. */
static int
resume_fast(RunCtx *ctx, PyObject *proc, PyObject *value)
{
    /* if self.done: return / raise */
    PyObject *done = get_attr(proc, s_done);
    if (done == NULL)
        return -1;
    int is_done = PyObject_IsTrue(done);
    Py_DECREF(done);
    if (is_done < 0)
        return -1;
    if (is_done) {
        PyObject *cancelled = get_attr(proc, s_cancelled);
        if (cancelled == NULL)
            return -1;
        int is_cancelled = PyObject_IsTrue(cancelled);
        Py_DECREF(cancelled);
        if (is_cancelled < 0)
            return -1;
        if (is_cancelled)
            return 0; /* a wake-up raced with cancellation; drop it */
        PyObject *name = get_attr(proc, s_name);
        PyErr_Format(g_sim_error, "process %R resumed after completion",
                     name ? name : Py_None);
        Py_XDECREF(name);
        return -1;
    }

    /* request = self._send(value) */
    PyObject *send = get_attr(proc, s_send);
    if (send == NULL)
        return -1;
    PyObject *request = PyObject_CallOneArg(send, value);
    Py_DECREF(send);

    if (request == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_StopIteration))
            return -1;
        /* generator returned: self._finish(stop.value) */
        PyObject *et, *ev, *etb;
        PyErr_Fetch(&et, &ev, &etb);
        PyErr_NormalizeException(&et, &ev, &etb);
        PyObject *stop_value = NULL;
        if (ev != NULL)
            stop_value = get_attr(ev, s_value);
        if (stop_value == NULL) {
            PyErr_Clear();
            stop_value = Py_None;
            Py_INCREF(stop_value);
        }
        Py_XDECREF(et);
        Py_XDECREF(ev);
        Py_XDECREF(etb);
        PyObject *finish = PyObject_GetAttr(proc, s_finish);
        if (finish == NULL) {
            Py_DECREF(stop_value);
            return -1;
        }
        PyObject *r = PyObject_CallOneArg(finish, stop_value);
        Py_DECREF(finish);
        Py_DECREF(stop_value);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }

    /* if request.__class__ is Timeout: inline dispatch */
    if ((PyObject *)Py_TYPE(request) == g_timeout_cls) {
        int rc = -1;
        PyObject *engine = NULL, *seqobj = NULL, *newseq = NULL;
        PyObject *delayobj = NULL, *resume_cb = NULL, *tup = NULL;
        engine = get_attr(proc, s_engine);
        if (engine == NULL)
            goto timeout_done;
        int own_engine = (engine == ctx->engine);
        /* engine.timeout_allocs += 1 */
        if (own_engine)
            ctx->timeout_allocs++;
        else if (bump_ll_attr(engine, s_timeout_allocs) < 0)
            goto timeout_done;
        seqobj = get_attr(engine, s_seq);
        if (seqobj == NULL)
            goto timeout_done;
        long long seq = PyLong_AsLongLong(seqobj);
        if (seq == -1 && PyErr_Occurred())
            goto timeout_done;
        newseq = PyLong_FromLongLong(seq + 1);
        if (newseq == NULL || set_attr(engine, s_seq, newseq) < 0)
            goto timeout_done;
        delayobj = get_attr(request, s_delay);
        if (delayobj == NULL)
            goto timeout_done;
        double delay = PyFloat_AsDouble(delayobj);
        if (delay == -1.0 && PyErr_Occurred())
            goto timeout_done;
        /* The request's delay is consumed; recycle the object into the
         * freelist shared with Timeout.__new__ when we hold the only
         * reference (the generator yielded a fresh instance). */
        if (Py_REFCNT(request) == 1 && g_timeout_pool != NULL) {
            if (PyList_Append(g_timeout_pool, request) < 0)
                PyErr_Clear(); /* best-effort: recycling is an optimization */
        }
        if (delay == 0.0) {
            resume_cb = get_attr(proc, s_resume_attr);
            if (resume_cb == NULL)
                goto timeout_done;
            tup = PyTuple_Pack(3, seqobj, resume_cb, Py_None);
            if (tup == NULL)
                goto timeout_done;
            PyObject *r;
            if (own_engine) {
                r = PyObject_CallOneArg(ctx->ready_append, tup);
            }
            else {
                PyObject *ready = get_attr(engine, s_ready);
                if (ready == NULL)
                    goto timeout_done;
                r = PyObject_CallMethodOneArg(ready, s_append, tup);
                Py_DECREF(ready);
            }
            if (r == NULL)
                goto timeout_done;
            Py_DECREF(r);
        }
        else if (own_engine) {
            /* The C timeout-event heap: no tuple, no boxed key, no
             * heapq call. Flushed back to engine._heap on loop exit. */
            double now;
            if (get_double(engine, s_now, &now) < 0)
                goto timeout_done;
            if (cheap_push(ctx, now + delay, seq, proc, EV_RESUME) < 0)
                goto timeout_done;
        }
        else {
            double now;
            if (get_double(engine, s_now, &now) < 0)
                goto timeout_done;
            PyObject *timeobj = PyFloat_FromDouble(now + delay);
            if (timeobj == NULL)
                goto timeout_done;
            resume_cb = get_attr(proc, s_resume_attr);
            if (resume_cb == NULL) {
                Py_DECREF(timeobj);
                goto timeout_done;
            }
            tup = PyTuple_Pack(3, timeobj, seqobj, resume_cb);
            Py_DECREF(timeobj);
            if (tup == NULL)
                goto timeout_done;
            PyObject *heap = get_attr(engine, s_heap);
            if (heap == NULL)
                goto timeout_done;
            PyObject *r = PyObject_CallFunctionObjArgs(g_heappush, heap, tup, NULL);
            Py_DECREF(heap);
            if (r == NULL)
                goto timeout_done;
            Py_DECREF(r);
        }
        rc = 0;
    timeout_done:
        Py_XDECREF(tup);
        Py_XDECREF(resume_cb);
        Py_XDECREF(delayobj);
        Py_XDECREF(newseq);
        Py_XDECREF(seqobj);
        Py_XDECREF(engine);
        Py_DECREF(request);
        return rc;
    }

    /* Fused network op: run its activation (and the whole program walk)
     * compiled. Exact-type check, like the Timeout branch. */
    if ((PyObject *)Py_TYPE(request) == g_fusedop_cls) {
        int rc = fused_activate(ctx, request, proc);
        Py_DECREF(request);
        return rc;
    }

    /* if not isinstance(request, Request): raise */
    int is_request = PyObject_IsInstance(request, g_request_cls);
    if (is_request < 0) {
        Py_DECREF(request);
        return -1;
    }
    if (!is_request) {
        PyObject *name = get_attr(proc, s_name);
        PyErr_Format(g_sim_error,
                     "process %R yielded %R; processes must yield Request "
                     "instances (Timeout, acquire(), wait(), ...)",
                     name ? name : Py_None, request);
        Py_XDECREF(name);
        Py_DECREF(request);
        return -1;
    }

    /* request.activate(self.engine, self) */
    PyObject *engine = get_attr(proc, s_engine);
    if (engine == NULL) {
        Py_DECREF(request);
        return -1;
    }
    PyObject *activate = PyObject_GetAttr(request, s_activate);
    Py_DECREF(request);
    if (activate == NULL) {
        Py_DECREF(engine);
        return -1;
    }
    PyObject *r = PyObject_CallFunctionObjArgs(activate, engine, proc, NULL);
    Py_DECREF(activate);
    Py_DECREF(engine);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ---- fused network operations (network._FusedOp): the only walker ----
 *
 * A fused op is a precomputed (pre, hold, post) delay program that the
 * reference engine runs as the Network._walk generator. Here the walk
 * runs in C, with the op's slots as its state: timed steps go straight
 * into the C event heap -- no tuple, no boxed key, no Python frame, no
 * Timeout per delay. An op with a `chain` is a whole task: when one step
 * completes the walker arms the next from the run's flat step list, so
 * the process's generator is re-entered once per task, not once per
 * operation -- or once per claim loop, when the op's `claim` loads the
 * next slice each time one runs out. Every seq is allocated and every
 * trace record made at the dispatch where the generators (Network._walk,
 * Harness._walk_task and the models' claim loops) make theirs, so
 * (time, seq) orders are unchanged; tests/simulate/test_sched.py holds
 * the walker to them. */

/* The op's next step after `delay`: run-queue for zero delays, C event
 * heap otherwise (engine == ctx->engine is guaranteed by the callers). */
static int
fused_dispatch(RunCtx *ctx, PyObject *op, PyObject *engine, double delay)
{
    long long seq;
    if (get_ll(engine, s_seq, &seq) < 0 || set_ll(engine, s_seq, seq + 1) < 0)
        return -1;
    if (delay == 0.0) {
        PyObject *seqobj = PyLong_FromLongLong(seq);
        PyObject *step = seqobj ? get_attr(op, s_step) : NULL;
        PyObject *tup = step ? PyTuple_Pack(3, seqobj, step, Py_None) : NULL;
        Py_XDECREF(step);
        Py_XDECREF(seqobj);
        if (tup == NULL)
            return -1;
        PyObject *r = PyObject_CallOneArg(ctx->ready_append, tup);
        Py_DECREF(tup);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    double now;
    if (get_double(engine, s_now, &now) < 0)
        return -1;
    return cheap_push(ctx, now + delay, seq, op, EV_FUSED);
}

/* trace.record(src, cat, start, end). TraceRecorder.record itself runs
 * here -- `totals[rank] += end - start; records += 1`, the same IEEE add
 * -- when it would do only that: the exact class, no interval log, a
 * known category, exact float bounds with end >= start and an in-range
 * rank. Any other case calls the method, which validates, logs and
 * raises as ever. Nothing is written before every check has passed. */
static int
trace_record(PyObject *trace, PyObject *src, PyObject *cat, PyObject *start,
             PyObject *end)
{
    PyObject **totals_p, **intervals_p, **records_p;
    if ((PyObject *)Py_TYPE(trace) == g_trace_cls && PyLong_CheckExact(src) &&
        PyUnicode_CheckExact(cat) && PyFloat_CheckExact(start) &&
        PyFloat_CheckExact(end) &&
        (totals_p = slot_addr(trace, s_totals)) != NULL &&
        (intervals_p = slot_addr(trace, s_intervals)) != NULL &&
        (records_p = slot_addr(trace, s_records)) != NULL &&
        *totals_p != NULL && PyDict_CheckExact(*totals_p) &&
        *intervals_p == Py_None && *records_p != NULL &&
        PyLong_CheckExact(*records_p)) {
        PyObject *totals = PyDict_GetItemWithError(*totals_p, cat);
        Py_ssize_t rank = PyLong_AsSsize_t(src);
        long long records = PyLong_AsLongLong(*records_p);
        double t0 = PyFloat_AS_DOUBLE(start), t1 = PyFloat_AS_DOUBLE(end);
        if (PyErr_Occurred())
            PyErr_Clear(); /* out-of-range ints: the method's business */
        else if (totals != NULL && PyList_CheckExact(totals) && rank >= 0 &&
                 rank < PyList_GET_SIZE(totals) &&
                 PyFloat_CheckExact(PyList_GET_ITEM(totals, rank)) && t1 >= t0) {
            PyObject *sum = PyFloat_FromDouble(
                PyFloat_AS_DOUBLE(PyList_GET_ITEM(totals, rank)) + (t1 - t0));
            PyObject *count = sum ? PyLong_FromLongLong(records + 1) : NULL;
            if (count == NULL) {
                Py_XDECREF(sum);
                return -1;
            }
            PyList_SetItem(totals, rank, sum); /* steals sum; index checked */
            Py_SETREF(*records_p, count);
            return 0;
        }
    }
    PyObject *r = PyObject_CallMethodObjArgs(trace, s_record, src, cat,
                                             start, end, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* resource.release(). Resource.release itself runs here -- `in_use -= 1`
 * -- when nobody waits: the exact class, in_use > 0, an empty queue. A
 * waiter (live or cancelled) or an unmatched release takes the method,
 * so grant order, seq allocation and the error stay where they are. */
static int
resource_release(PyObject *resource)
{
    PyObject **in_use_p, **queue_p;
    if ((PyObject *)Py_TYPE(resource) == g_resource_cls &&
        (in_use_p = slot_addr(resource, s_in_use)) != NULL &&
        (queue_p = slot_addr(resource, s_queue)) != NULL &&
        *in_use_p != NULL && PyLong_CheckExact(*in_use_p) && *queue_p != NULL) {
        long long in_use = PyLong_AsLongLong(*in_use_p);
        if (in_use == -1 && PyErr_Occurred())
            PyErr_Clear();
        else if (in_use > 0) {
            int waiting = PyObject_IsTrue(*queue_p); /* `while queue:` */
            if (waiting < 0)
                return -1;
            if (!waiting)
                return set_ll(resource, s_in_use, in_use - 1);
        }
    }
    PyObject *r = PyObject_CallMethodNoArgs(resource, s_release);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* The op is over: mark it done, drop the bound method of itself (a
 * finished op is freed by reference count), resume the waiting process
 * with the op's result. */
static int
fused_finish(RunCtx *ctx, PyObject *op)
{
    if (set_attr(op, s_done, Py_True) < 0 || set_attr(op, s_step, Py_None) < 0)
        return -1;
    PyObject *proc = get_attr(op, s_proc);
    if (proc == NULL)
        return -1;
    PyObject *result = get_attr(op, s_result);
    if (result == NULL) {
        Py_DECREF(proc);
        return -1;
    }
    int rc;
    if ((PyObject *)Py_TYPE(proc) == g_process_cls)
        rc = resume_fast(ctx, proc, result);
    else {
        PyObject *rr = PyObject_CallMethodOneArg(proc, s_resume_pub, result);
        rc = rr == NULL ? -1 : 0;
        Py_XDECREF(rr);
    }
    Py_DECREF(result);
    Py_DECREF(proc);
    return rc;
}

/* A (pre, hold, post) program as the walker needs it: borrowed items of
 * an exact 3-tuple whose pre is an exact tuple, whose hold is None or a
 * float and whose post is an exact tuple, with a float first pre-delay
 * or, for a lock hold, no pre-delay and a float hold; 0 otherwise. */
static int
program_items(PyObject *program, PyObject **pre, PyObject **hold, PyObject **post)
{
    if (!PyTuple_CheckExact(program) || PyTuple_GET_SIZE(program) != 3)
        return 0;
    *pre = PyTuple_GET_ITEM(program, 0);
    *hold = PyTuple_GET_ITEM(program, 1);
    *post = PyTuple_GET_ITEM(program, 2);
    if (!PyTuple_CheckExact(*pre) || !PyTuple_CheckExact(*post) ||
        !(*hold == Py_None || PyFloat_CheckExact(*hold)))
        return 0;
    return PyTuple_GET_SIZE(*pre) > 0 ? PyFloat_CheckExact(PyTuple_GET_ITEM(*pre, 0))
                                      : *hold != Py_None;
}

/* nic.acquire() for the op: _ResourceAcquire.activate with the op
 * queued in place of a process. */
static int
fused_acquire(RunCtx *ctx, PyObject *op, PyObject *engine, PyObject *nic)
{
    long long in_use, capacity;
    if (set_ll(op, s_phase, 1) < 0 || get_ll(nic, s_in_use, &in_use) < 0 ||
        get_ll(nic, s_capacity, &capacity) < 0)
        return -1;
    PyObject *r;
    if (in_use < capacity) {
        long long acq, seq;
        if (set_ll(nic, s_in_use, in_use + 1) < 0 ||
            get_ll(nic, s_total_acquisitions, &acq) < 0 ||
            set_ll(nic, s_total_acquisitions, acq + 1) < 0 ||
            get_ll(engine, s_seq, &seq) < 0 || set_ll(engine, s_seq, seq + 1) < 0)
            return -1;
        /* engine.call_now(nic._deliver_grant, op) */
        PyObject *seqobj = PyLong_FromLongLong(seq);
        PyObject *deliver =
            seqobj == NULL ? NULL : PyObject_GetAttr(nic, s_deliver_name);
        PyObject *tup =
            deliver == NULL ? NULL : PyTuple_Pack(3, seqobj, deliver, op);
        Py_XDECREF(deliver);
        Py_XDECREF(seqobj);
        if (tup == NULL)
            return -1;
        r = PyObject_CallOneArg(ctx->ready_append, tup);
        Py_DECREF(tup);
    }
    else {
        long long waits;
        if (get_ll(nic, s_total_waits, &waits) < 0 ||
            set_ll(nic, s_total_waits, waits + 1) < 0)
            return -1;
        PyObject *queue = get_attr(nic, s_queue);
        if (queue == NULL)
            return -1;
        r = PyObject_CallMethodOneArg(queue, s_append, op);
        Py_DECREF(queue);
    }
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Arm the chain's next step, or the first of the slice the op's claim
 * loads next, or finish. A chain is what Harness builds -- exact tuples,
 * int ranks, float delays, every index in range; anything else raises
 * TypeError naming the step before a single store. */
static int
fused_load_step(RunCtx *ctx, PyObject *op, PyObject *engine)
{
    long long pos, end;
    if (get_ll(op, s_pos, &pos) < 0 || get_ll(op, s_end, &end) < 0)
        return -1;
    while (pos >= end) {
        PyObject *claim = get_attr(op, s_claim);
        if (claim == NULL)
            return -1;
        int more = 0;
        if (claim != Py_None) {
            PyObject *r = PyObject_CallOneArg(claim, op);
            more = r == NULL ? -1 : PyObject_IsTrue(r);
            Py_XDECREF(r);
        }
        Py_DECREF(claim);
        if (more < 0)
            return -1;
        if (!more)
            return fused_finish(ctx, op);
        if (get_ll(op, s_pos, &pos) < 0 || get_ll(op, s_end, &end) < 0)
            return -1;
    }
    int rc = -1;
    PyObject *chain = get_attr(op, s_chain);
    PyObject *srcobj = chain ? get_attr(op, s_src) : NULL;
    PyObject *nowobj = srcobj ? get_attr(engine, s_now) : NULL;
    if (nowobj == NULL)
        goto out;
    PyObject *steps, *nics, *ids, *step = NULL;
    if (!PyTuple_CheckExact(chain) || PyTuple_GET_SIZE(chain) != 3 ||
        !PyTuple_CheckExact(steps = PyTuple_GET_ITEM(chain, 0)) || pos < 0 ||
        pos >= PyTuple_GET_SIZE(steps))
        goto malformed;
    nics = PyTuple_GET_ITEM(chain, 1);
    ids = PyTuple_GET_ITEM(chain, 2);
    step = PyTuple_GET_ITEM(steps, pos);
    if (step == Py_None) { /* the kernel */
        double duration;
        if (get_double(op, s_duration, &duration) < 0)
            goto out;
        if (set_ll(op, s_pos, pos + 1) < 0 || set_attr(op, s_start, nowobj) < 0 ||
            set_ll(op, s_phase, 4) < 0)
            goto out;
        ctx->timeout_allocs++; /* engine.timeout_allocs += 1 */
        rc = fused_dispatch(ctx, op, engine, duration);
        goto out;
    }
    PyObject *dstobj, *programs, *pre, *hold, *post;
    if (!PyTuple_CheckExact(step) || PyTuple_GET_SIZE(step) != 3 ||
        !PyLong_CheckExact(dstobj = PyTuple_GET_ITEM(step, 0)) ||
        !PyLong_CheckExact(srcobj) ||
        !PyTuple_CheckExact(programs = PyTuple_GET_ITEM(step, 1)) ||
        PyTuple_GET_SIZE(programs) != 3)
        goto malformed;
    Py_ssize_t src = PyLong_AsSsize_t(srcobj), dst = PyLong_AsSsize_t(dstobj);
    if (PyErr_Occurred()) {
        PyErr_Clear();
        goto malformed;
    }
    int tier = 0;
    if (src != dst) {
        tier = 2;
        if (ids != Py_None) {
            if (!PyList_CheckExact(ids) || src < 0 || dst < 0 ||
                src >= PyList_GET_SIZE(ids) || dst >= PyList_GET_SIZE(ids))
                goto malformed;
            int same = PyObject_RichCompareBool(PyList_GET_ITEM(ids, src),
                                                PyList_GET_ITEM(ids, dst), Py_EQ);
            if (same < 0)
                goto out;
            if (same)
                tier = 1;
        }
    }
    if (!program_items(PyTuple_GET_ITEM(programs, tier), &pre, &hold, &post))
        goto malformed;
    PyObject *nic = Py_None;
    if (hold != Py_None) {
        if (!PyList_CheckExact(nics) || dst < 0 || dst >= PyList_GET_SIZE(nics))
            goto malformed;
        nic = PyList_GET_ITEM(nics, dst);
    }
    int lock = PyTuple_GET_SIZE(pre) == 0; /* its interval begins at the grant */
    if (set_ll(op, s_pos, pos + 1) < 0 ||
        set_attr(op, s_start, lock ? Py_None : nowobj) < 0 ||
        set_attr(op, s_category, PyTuple_GET_ITEM(step, 2)) < 0 ||
        set_attr(op, s_post, post) < 0 || set_attr(op, s_pre, pre) < 0 ||
        set_attr(op, s_hold, hold) < 0 || set_attr(op, s_nic, nic) < 0 ||
        set_ll(op, s_phase, 0) < 0 || set_ll(op, s_idx, 1) < 0)
        goto out;
    rc = lock ? fused_acquire(ctx, op, engine, nic)
              : fused_dispatch(ctx, op, engine,
                               PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(pre, 0)));
    goto out;
malformed:
    if (step == NULL)
        PyErr_Format(PyExc_TypeError, "fused op chain has no step %lld", pos);
    else
        PyErr_Format(PyExc_TypeError, "malformed fused op step %lld: %R", pos, step);
out:
    Py_XDECREF(nowobj);
    Py_XDECREF(srcobj);
    Py_XDECREF(chain);
    return rc;
}

/* One operation ran: emit its trace record, then arm the next step (an
 * op without a chain has none and finishes). */
static int
fused_complete(RunCtx *ctx, PyObject *op, PyObject *engine)
{
    PyObject *trace = get_attr(op, s_trace);
    PyObject *src = trace ? get_attr(op, s_src) : NULL;
    PyObject *cat = src ? get_attr(op, s_category) : NULL;
    PyObject *start = cat ? get_attr(op, s_start) : NULL;
    PyObject *nowobj = start ? get_attr(engine, s_now) : NULL;
    int recorded = nowobj ? trace_record(trace, src, cat, start, nowobj) : -1;
    Py_XDECREF(nowobj);
    Py_XDECREF(start);
    Py_XDECREF(cat);
    Py_XDECREF(src);
    Py_XDECREF(trace);
    if (recorded < 0)
        return -1;
    return fused_load_step(ctx, op, engine);
}

/* The NIC grant arrived. fetch_add's read-modify-write
 * happens here (while the home NIC is held), a lock hold's interval and
 * Timeout begin here, then the held occupancy is scheduled. */
static int
fused_resume(RunCtx *ctx, PyObject *op)
{
    PyObject *counter = get_attr(op, s_counter);
    if (counter == NULL)
        return -1;
    if (counter != Py_None) {
        PyObject *value = get_attr(counter, s_value);
        if (value == NULL || set_attr(op, s_result, value) < 0) {
            Py_XDECREF(value);
            Py_DECREF(counter);
            return -1;
        }
        PyObject *amount = get_attr(op, s_amount);
        PyObject *newval =
            amount == NULL ? NULL : PyNumber_InPlaceAdd(value, amount);
        Py_XDECREF(amount);
        Py_DECREF(value);
        int rc2 = newval == NULL ? -1 : set_attr(counter, s_value, newval);
        Py_XDECREF(newval);
        Py_DECREF(counter);
        if (rc2 < 0)
            return -1;
    }
    else
        Py_DECREF(counter);
    PyObject *engine = get_attr(op, s_engine);
    if (engine == NULL)
        return -1;
    PyObject *start = get_attr(op, s_start);
    if (start == NULL) {
        Py_DECREF(engine);
        return -1;
    }
    Py_DECREF(start); /* only compared */
    if (start == Py_None) {
        PyObject *nowobj = get_attr(engine, s_now);
        int set = nowobj == NULL ? -1 : set_attr(op, s_start, nowobj);
        Py_XDECREF(nowobj);
        if (set < 0) {
            Py_DECREF(engine);
            return -1;
        }
        /* engine.timeout_allocs += 1 */
        if (engine == ctx->engine)
            ctx->timeout_allocs++;
        else if (bump_ll_attr(engine, s_timeout_allocs) < 0) {
            Py_DECREF(engine);
            return -1;
        }
    }
    if (set_attr(op, s_holding, Py_True) < 0 || set_ll(op, s_phase, 2) < 0) {
        Py_DECREF(engine);
        return -1;
    }
    PyObject *holdobj = get_attr(op, s_hold);
    if (holdobj == NULL) {
        Py_DECREF(engine);
        return -1;
    }
    double hold = PyFloat_AsDouble(holdobj);
    Py_DECREF(holdobj);
    if (hold == -1.0 && PyErr_Occurred()) {
        Py_DECREF(engine);
        return -1;
    }
    int rc = fused_dispatch(ctx, op, engine, hold);
    Py_DECREF(engine);
    return rc;
}

/* One step of the delay program: the op's `_advance` callback. */
static int
fused_advance(RunCtx *ctx, PyObject *op)
{
    PyObject *done = get_attr(op, s_done);
    if (done == NULL)
        return -1;
    int is_done = PyObject_IsTrue(done);
    Py_DECREF(done);
    if (is_done < 0)
        return -1;
    if (is_done)
        return 0; /* late wake-up raced with cancellation */
    PyObject *engine = get_attr(op, s_engine);
    if (engine == NULL)
        return -1;
    if (engine != ctx->engine) {
        Py_DECREF(engine);
        PyErr_SetString(g_sim_error, "a fused network op is walked only by "
                                     "the engine running its process");
        return -1;
    }
    int rc = -1;
    long long phase;
    if (get_ll(op, s_phase, &phase) < 0)
        goto out;
    if (phase == 0) {
        PyObject *pre = get_attr(op, s_pre);
        if (pre == NULL || !PyTuple_Check(pre)) {
            Py_XDECREF(pre);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "fused op delays must be tuples");
            goto out;
        }
        long long idx;
        if (get_ll(op, s_idx, &idx) < 0) {
            Py_DECREF(pre);
            goto out;
        }
        if (idx < PyTuple_GET_SIZE(pre)) {
            double d = PyFloat_AsDouble(PyTuple_GET_ITEM(pre, idx));
            Py_DECREF(pre);
            if (d == -1.0 && PyErr_Occurred())
                goto out;
            if (set_ll(op, s_idx, idx + 1) < 0)
                goto out;
            rc = fused_dispatch(ctx, op, engine, d);
            goto out;
        }
        Py_DECREF(pre);
        PyObject *nic = get_attr(op, s_nic);
        if (nic == NULL)
            goto out;
        rc = nic == Py_None ? fused_complete(ctx, op, engine)
                            : fused_acquire(ctx, op, engine, nic);
        Py_DECREF(nic);
        goto out;
    }
    if (phase == 2) {
        /* hold expired: release first (the next waiter's grant takes
         * its seq here, as the generator's finally did), then the
         * return-path delays. */
        if (set_attr(op, s_holding, Py_False) < 0)
            goto out;
        PyObject *nic = get_attr(op, s_nic);
        if (nic == NULL)
            goto out;
        int released = resource_release(nic);
        Py_DECREF(nic);
        if (released < 0)
            goto out;
        PyObject *post = get_attr(op, s_post);
        if (post == NULL || !PyTuple_Check(post)) {
            Py_XDECREF(post);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "fused op delays must be tuples");
            goto out;
        }
        if (PyTuple_GET_SIZE(post) > 0) {
            double d = PyFloat_AsDouble(PyTuple_GET_ITEM(post, 0));
            Py_DECREF(post);
            if (d == -1.0 && PyErr_Occurred())
                goto out;
            if (set_ll(op, s_phase, 3) < 0 || set_ll(op, s_idx, 1) < 0)
                goto out;
            rc = fused_dispatch(ctx, op, engine, d);
        }
        else {
            Py_DECREF(post);
            rc = fused_complete(ctx, op, engine);
        }
        goto out;
    }
    if (phase == 4) {
        /* the kernel ran: record its interval where the generator
         * resumed from the kernel's Timeout, then the accumulates. */
        PyObject *tid = get_attr(op, s_tid);
        PyObject *start = tid ? get_attr(op, s_start) : NULL;
        PyObject *nowobj = start ? get_attr(engine, s_now) : NULL;
        int recorded = -1;
        if (nowobj != NULL) {
            PyObject *trace = get_attr(op, s_trace);
            PyObject *src = trace ? get_attr(op, s_src) : NULL;
            PyObject *r = src ? PyObject_CallMethodObjArgs(
                                    trace, s_record_compute, src, tid, start,
                                    nowobj, NULL)
                              : NULL;
            recorded = r == NULL ? -1 : 0;
            Py_XDECREF(r);
            Py_XDECREF(src);
            Py_XDECREF(trace);
        }
        Py_XDECREF(nowobj);
        Py_XDECREF(start);
        Py_XDECREF(tid);
        if (recorded == 0)
            rc = fused_load_step(ctx, op, engine);
        goto out;
    }
    /* phase 3: walk the remaining return-path delays */
    {
        PyObject *post = get_attr(op, s_post);
        if (post == NULL || !PyTuple_Check(post)) {
            Py_XDECREF(post);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "fused op delays must be tuples");
            goto out;
        }
        long long idx;
        if (get_ll(op, s_idx, &idx) < 0) {
            Py_DECREF(post);
            goto out;
        }
        if (idx < PyTuple_GET_SIZE(post)) {
            double d = PyFloat_AsDouble(PyTuple_GET_ITEM(post, idx));
            Py_DECREF(post);
            if (d == -1.0 && PyErr_Occurred())
                goto out;
            if (set_ll(op, s_idx, idx + 1) < 0)
                goto out;
            rc = fused_dispatch(ctx, op, engine, d);
        }
        else {
            Py_DECREF(post);
            rc = fused_complete(ctx, op, engine);
        }
    }
out:
    Py_DECREF(engine);
    return rc;
}

/* A process yielded the op: bind it to the process and dispatch the
 * first pre-delay, or arm the chain's first step. */
static int
fused_activate(RunCtx *ctx, PyObject *op, PyObject *proc)
{
    PyObject *engine = get_attr(proc, s_engine);
    if (engine == NULL)
        return -1;
    if (engine != ctx->engine) {
        Py_DECREF(engine);
        PyErr_SetString(g_sim_error, "a fused network op is walked only by "
                                     "the engine running its process");
        return -1;
    }
    int rc = -1;
    PyObject *nowobj = NULL, *step = NULL, *pre = NULL, *chain = NULL;
    if (set_attr(op, s_engine, engine) < 0 ||
        set_attr(op, s_proc, proc) < 0)
        goto out;
    step = PyObject_GetAttr(op, s_advance_name); /* bound self._advance */
    if (step == NULL || set_attr(op, s_step, step) < 0)
        goto out;
    chain = get_attr(op, s_chain);
    if (chain == NULL)
        goto out;
    if (chain != Py_None) {
        rc = fused_load_step(ctx, op, engine);
        goto out;
    }
    nowobj = get_attr(engine, s_now);
    if (nowobj == NULL || set_attr(op, s_start, nowobj) < 0)
        goto out;
    if (set_ll(op, s_phase, 0) < 0 || set_ll(op, s_idx, 1) < 0)
        goto out;
    pre = get_attr(op, s_pre);
    if (pre == NULL)
        goto out;
    if (!PyTuple_Check(pre) || PyTuple_GET_SIZE(pre) < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "fused op pre-delays must be a non-empty tuple");
        goto out;
    }
    double d = PyFloat_AsDouble(PyTuple_GET_ITEM(pre, 0));
    if (d == -1.0 && PyErr_Occurred())
        goto out;
    rc = fused_dispatch(ctx, op, engine, d);
out:
    Py_XDECREF(chain);
    Py_XDECREF(pre);
    Py_XDECREF(step);
    Py_XDECREF(nowobj);
    Py_DECREF(engine);
    return rc;
}

/* Resource._deliver_grant(proc), compiled: the done-check plus dispatch
 * to the resume fast path (Process) or the waiter's own resume (fused
 * network ops), without the Python frame. */
static int
deliver_grant_fast(RunCtx *ctx, PyObject *resource, PyObject *proc)
{
    PyObject *done = get_attr(proc, s_done);
    if (done == NULL)
        return -1;
    int is_done = PyObject_IsTrue(done);
    Py_DECREF(done);
    if (is_done < 0)
        return -1;
    if (is_done) {
        /* cancelled between grant and wake-up: the slot is re-offered */
        return resource_release(resource);
    }
    /* proc.engine.grant_resumes += 1 */
    PyObject *engine = get_attr(proc, s_engine);
    if (engine == NULL)
        return -1;
    if (engine == ctx->engine)
        ctx->grants++;
    else if (bump_ll_attr(engine, s_grant_resumes) < 0) {
        Py_DECREF(engine);
        return -1;
    }
    Py_DECREF(engine);
    if ((PyObject *)Py_TYPE(proc) == g_process_cls)
        return resume_fast(ctx, proc, Py_None);
    if ((PyObject *)Py_TYPE(proc) == g_fusedop_cls)
        return fused_resume(ctx, proc);
    PyObject *r = PyObject_CallMethodOneArg(proc, s_resume_pub, Py_None);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Call a dispatched callback. `arg == NULL` means the heap convention
 * (no-argument call); otherwise the run-queue convention cb(arg). Bound
 * Process.resume / Resource._deliver_grant methods short-circuit into
 * the compiled fast paths. */
static int
invoke_callback(RunCtx *ctx, PyObject *cb, PyObject *arg)
{
    if (PyMethod_Check(cb)) {
        PyObject *func = PyMethod_GET_FUNCTION(cb);
        if (func == g_resume_func)
            return resume_fast(ctx, PyMethod_GET_SELF(cb),
                               arg != NULL ? arg : Py_None);
        if (func == g_deliver_func && arg != NULL && arg != Py_None)
            return deliver_grant_fast(ctx, PyMethod_GET_SELF(cb), arg);
        if (func == g_advance_func)
            return fused_advance(ctx, PyMethod_GET_SELF(cb));
    }
    PyObject *r = arg != NULL ? PyObject_CallOneArg(cb, arg)
                              : PyObject_CallNoArgs(cb);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Flush C-held events back into the Python heap as ordinary
 * (time, seq, callback) tuples -- run on every loop exit so the
 * engine's observable pending-event state matches the Python engine's.
 * Resume events carry proc._resume; fused-op steps carry a bound
 * _advance made here, because an op closed since has dropped its _step
 * and its pending wake-up must still be dispatched (and dropped), as the
 * reference engine dispatches a cancelled generator's pending Timeout.
 * Returns -1 (with an exception set) if any event could not be moved. */
static int
flush_cheap(RunCtx *ctx)
{
    int rc = 0;
    while (ctx->ch_len > 0) {
        CEvent ev = cheap_pop(ctx);
        if (rc == 0) {
            PyObject *timeobj = PyFloat_FromDouble(ev.time);
            PyObject *seqobj = PyLong_FromLongLong(ev.seq);
            PyObject *cb = NULL;
            if (timeobj && seqobj)
                cb = ev.kind == EV_RESUME
                         ? get_attr(ev.obj, s_resume_attr)
                         : PyObject_GetAttr(ev.obj, s_advance_name);
            PyObject *tup =
                cb != NULL ? PyTuple_Pack(3, timeobj, seqobj, cb) : NULL;
            Py_XDECREF(timeobj);
            Py_XDECREF(seqobj);
            Py_XDECREF(cb);
            if (tup == NULL)
                rc = -1;
            else {
                PyObject *r =
                    PyObject_CallFunctionObjArgs(g_heappush, ctx->heap, tup, NULL);
                Py_DECREF(tup);
                if (r == NULL)
                    rc = -1;
                else
                    Py_DECREF(r);
            }
        }
        Py_DECREF(ev.obj);
    }
    return rc;
}

/* run(engine, until) -> 1 if stopped at the horizon, 0 if drained.
 * Counters and `now` are written back on every exit path (the Python
 * loop's `finally`), and callback exceptions propagate unchanged. */
static PyObject *
core_run(PyObject *self, PyObject *args)
{
    PyObject *engine;
    double until;
    if (!PyArg_ParseTuple(args, "Od:run", &engine, &until))
        return NULL;
    if (g_resume_func == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_engine_core.setup() was not called");
        return NULL;
    }

    RunCtx ctx;
    ctx.engine = engine;
    ctx.heap = get_attr(engine, s_heap);
    ctx.ready = get_attr(engine, s_ready);
    ctx.ready_append = ctx.ready ? PyObject_GetAttr(ctx.ready, s_append) : NULL;
    PyObject *pop_ready =
        ctx.ready ? PyObject_GetAttr(ctx.ready, s_popleft) : NULL;
    if (!g_spare_busy) {
        ctx.ch = g_spare;
        ctx.ch_cap = g_spare_cap;
        ctx.ch_owned = 0;
        g_spare_busy = 1;
    }
    else {
        ctx.ch = NULL;
        ctx.ch_cap = 0;
        ctx.ch_owned = 1;
    }
    ctx.ch_len = 0;
    ctx.timeout_allocs = 0;
    ctx.grants = 0;

    long long dispatched = 0, from_ready = 0;
    double now = 0.0;
    int err = 0, horizon = 0;

    if (ctx.heap == NULL || ctx.ready == NULL || ctx.ready_append == NULL ||
        pop_ready == NULL || !PyList_Check(ctx.heap) ||
        get_ll(engine, s_events_dispatched, &dispatched) < 0 ||
        get_ll(engine, s_ready_dispatched, &from_ready) < 0 ||
        get_double(engine, s_now, &now) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "engine._heap must be a list");
        Py_XDECREF(ctx.heap);
        Py_XDECREF(ctx.ready);
        Py_XDECREF(ctx.ready_append);
        Py_XDECREF(pop_ready);
        if (ctx.ch_owned)
            free(ctx.ch);
        else
            g_spare_busy = 0;
        return NULL;
    }

    for (;;) {
        Py_ssize_t nready = PyObject_Size(ctx.ready);
        if (nready < 0) {
            err = 1;
            break;
        }

        /* best pending timed event across the Python and C heaps */
        int have_best = 0, best_c = 0;
        double bt = 0.0;
        long long bs = 0;
        if (PyList_GET_SIZE(ctx.heap) > 0) {
            if (entry_key(PyList_GET_ITEM(ctx.heap, 0), &bt, &bs) < 0) {
                err = 1;
                break;
            }
            have_best = 1;
        }
        if (ctx.ch_len > 0) {
            CEvent *h = &ctx.ch[0];
            if (!have_best || h->time < bt || (h->time == bt && h->seq < bs)) {
                bt = h->time;
                bs = h->seq;
                best_c = 1;
            }
            have_best = 1;
        }

        if (nready > 0) {
            int use_heap = 0;
            if (have_best && bt <= now) {
                PyObject *r0 = PySequence_GetItem(ctx.ready, 0);
                if (r0 == NULL || !PyTuple_Check(r0) ||
                    PyTuple_GET_SIZE(r0) != 3) {
                    Py_XDECREF(r0);
                    if (!PyErr_Occurred())
                        PyErr_SetString(
                            PyExc_TypeError,
                            "run-queue entry is not a (seq, cb, arg) tuple");
                    err = 1;
                    break;
                }
                long long rs = PyLong_AsLongLong(PyTuple_GET_ITEM(r0, 0));
                Py_DECREF(r0);
                if (rs == -1 && PyErr_Occurred()) {
                    err = 1;
                    break;
                }
                if (bs < rs)
                    use_heap = 1;
            }
            if (use_heap) {
                dispatched++;
                int rc;
                if (best_c) {
                    CEvent ev = cheap_pop(&ctx);
                    rc = ev.kind == EV_RESUME
                             ? resume_fast(&ctx, ev.obj, Py_None)
                             : fused_advance(&ctx, ev.obj);
                    Py_DECREF(ev.obj);
                }
                else {
                    PyObject *item = PyObject_CallOneArg(g_heappop, ctx.heap);
                    if (item == NULL) {
                        err = 1;
                        break;
                    }
                    rc = invoke_callback(&ctx, PyTuple_GET_ITEM(item, 2), NULL);
                    Py_DECREF(item);
                }
                if (rc < 0) {
                    err = 1;
                    break;
                }
            }
            else {
                PyObject *item = PyObject_CallNoArgs(pop_ready);
                if (item == NULL || !PyTuple_Check(item) ||
                    PyTuple_GET_SIZE(item) != 3) {
                    Py_XDECREF(item);
                    if (!PyErr_Occurred())
                        PyErr_SetString(
                            PyExc_TypeError,
                            "run-queue entry is not a (seq, cb, arg) tuple");
                    err = 1;
                    break;
                }
                dispatched++;
                from_ready++;
                int rc = invoke_callback(&ctx, PyTuple_GET_ITEM(item, 1),
                                         PyTuple_GET_ITEM(item, 2));
                Py_DECREF(item);
                if (rc < 0) {
                    err = 1;
                    break;
                }
            }
        }
        else if (have_best) {
            if (bt > until) {
                now = until;
                if (set_double(engine, s_now, until) < 0)
                    err = 1;
                else
                    horizon = 1;
                break;
            }
            now = bt;
            if (set_double(engine, s_now, now) < 0) {
                err = 1;
                break;
            }
            dispatched++;
            int rc;
            if (best_c) {
                CEvent ev = cheap_pop(&ctx);
                rc = ev.kind == EV_RESUME ? resume_fast(&ctx, ev.obj, Py_None)
                                          : fused_advance(&ctx, ev.obj);
                Py_DECREF(ev.obj);
            }
            else {
                PyObject *item = PyObject_CallOneArg(g_heappop, ctx.heap);
                if (item == NULL) {
                    err = 1;
                    break;
                }
                rc = invoke_callback(&ctx, PyTuple_GET_ITEM(item, 2), NULL);
                Py_DECREF(item);
            }
            if (rc < 0) {
                err = 1;
                break;
            }
        }
        else {
            break;
        }
    }

    /* finally: restore the engine's observable state -- flush C-held
     * events into the Python heap and write the counters back --
     * preserving any pending exception. */
    PyObject *et = NULL, *ev = NULL, *etb = NULL;
    if (err)
        PyErr_Fetch(&et, &ev, &etb);
    if (flush_cheap(&ctx) < 0 && !err)
        err = 1;
    if (set_ll(engine, s_events_dispatched, dispatched) < 0 && !err)
        err = 1;
    else if (set_ll(engine, s_ready_dispatched, from_ready) < 0 && !err)
        err = 1;
    /* Fold the fast-path deltas into whatever Python-side callbacks
     * already accumulated on the attributes during this run -- also when
     * a callback raised: the Python engine counted those events too. */
    long long base;
    if (ctx.timeout_allocs != 0 &&
        (get_ll(engine, s_timeout_allocs, &base) < 0 ||
         set_ll(engine, s_timeout_allocs, base + ctx.timeout_allocs) < 0))
        err = 1;
    if (ctx.grants != 0 &&
        (get_ll(engine, s_grant_resumes, &base) < 0 ||
         set_ll(engine, s_grant_resumes, base + ctx.grants) < 0))
        err = 1;
    if (et != NULL || ev != NULL || etb != NULL)
        PyErr_Restore(et, ev, etb);
    Py_DECREF(ctx.heap);
    Py_DECREF(ctx.ready);
    Py_DECREF(ctx.ready_append);
    Py_DECREF(pop_ready);
    if (ctx.ch_owned)
        free(ctx.ch);
    else {
        g_spare = ctx.ch;
        g_spare_cap = ctx.ch_cap;
        g_spare_busy = 0;
    }
    if (err)
        return NULL;
    return PyLong_FromLong(horizon);
}

static PyObject *
core_setup(PyObject *self, PyObject *args)
{
    PyObject *process_cls, *timeout_cls, *request_cls, *sim_error;
    PyObject *resource_cls, *timeout_pool, *fusedop_cls, *trace_cls;
    if (!PyArg_ParseTuple(args, "OOOOOOOO:setup", &process_cls, &timeout_cls,
                          &request_cls, &sim_error, &resource_cls,
                          &timeout_pool, &fusedop_cls, &trace_cls))
        return NULL;
    if (!PyList_Check(timeout_pool)) {
        PyErr_SetString(PyExc_TypeError, "timeout_pool must be a list");
        return NULL;
    }
    PyObject *resume = PyObject_GetAttrString(process_cls, "resume");
    if (resume == NULL)
        return NULL;
    PyObject *deliver = PyObject_GetAttrString(resource_cls, "_deliver_grant");
    if (deliver == NULL) {
        Py_DECREF(resume);
        return NULL;
    }
    PyObject *advance = PyObject_GetAttrString(fusedop_cls, "_advance");
    if (advance == NULL) {
        Py_DECREF(resume);
        Py_DECREF(deliver);
        return NULL;
    }
    Py_XSETREF(g_process_cls, Py_NewRef(process_cls));
    Py_XSETREF(g_timeout_cls, Py_NewRef(timeout_cls));
    Py_XSETREF(g_request_cls, Py_NewRef(request_cls));
    Py_XSETREF(g_sim_error, Py_NewRef(sim_error));
    Py_XSETREF(g_resume_func, resume);
    Py_XSETREF(g_deliver_func, deliver);
    Py_XSETREF(g_timeout_pool, Py_NewRef(timeout_pool));
    Py_XSETREF(g_fusedop_cls, Py_NewRef(fusedop_cls));
    Py_XSETREF(g_advance_func, advance);
    Py_XSETREF(g_resource_cls, Py_NewRef(resource_cls));
    Py_XSETREF(g_trace_cls, Py_NewRef(trace_cls));
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------------
 * One Fiduccia-Mattheyses pass of repro.balance.partition._fm_pass over
 * plain arrays. The Python body is the reference and every line below
 * mirrors one of its lines, so the returned partition is bit-identical:
 *
 * - initial gains add vertex-major, nets ascending, `+w` or a literal
 *   `+0.0` then `-w` or `+0.0` from 0.0: the order np.add.at applies;
 * - heap entries are (-gain, v, stamp) compared as Python tuples (first
 *   unequal field decides, so -0.0 == 0.0 falls to v); they are unique
 *   and, with finite weights, no gain is NaN, so the order is total and
 *   pop order does not depend on heap layout;
 * - the deferred list, its merge with the heap, the `insort`
 *   (bisect_right) and the may_unblock slack are the reference's;
 * - state keys compare as the (int, float, float) tuple.
 *
 * There is no multiply-add anywhere, so FP contraction cannot reorder a
 * rounding. Every input is checked before it is dereferenced (dtypes,
 * lengths, both CSRs, pins and net ids in range, finite weights, sides
 * in {0, 1}); scratch comes from PyMem_* and a failed allocation is a
 * MemoryError. `side` is read into private memory and written back once
 * at the end. */

typedef struct {
    double neg_gain;
    long long v;
    long long stamp;
} FmEntry;

typedef struct {
    FmEntry *a;
    Py_ssize_t len, cap;
} FmVec;

typedef struct {
    int infeasible;
    double neg_cum;
    double dev;
} FmKey;

/* Python tuple `<` on (neg_gain, v, stamp). */
static inline int
fm_lt(const FmEntry *a, const FmEntry *b)
{
    if (!(a->neg_gain == b->neg_gain))
        return a->neg_gain < b->neg_gain;
    if (a->v != b->v)
        return a->v < b->v;
    return a->stamp < b->stamp;
}

/* Python tuple `<=` on (neg_gain, v, stamp). */
static inline int
fm_le(const FmEntry *a, const FmEntry *b)
{
    if (!(a->neg_gain == b->neg_gain))
        return a->neg_gain <= b->neg_gain;
    if (a->v != b->v)
        return a->v < b->v;
    return a->stamp <= b->stamp;
}

static inline int
fm_key_lt(const FmKey *a, const FmKey *b)
{
    if (a->infeasible != b->infeasible)
        return a->infeasible < b->infeasible;
    if (!(a->neg_cum == b->neg_cum))
        return a->neg_cum < b->neg_cum;
    if (!(a->dev == b->dev))
        return a->dev < b->dev;
    return 0;
}

static int
fm_reserve(FmVec *x, Py_ssize_t need)
{
    if (need <= x->cap)
        return 0;
    Py_ssize_t cap = x->cap ? x->cap : 64;
    while (cap < need) {
        if (cap > PY_SSIZE_T_MAX / 2)
            goto nomem;
        cap *= 2;
    }
    FmEntry *a = PyMem_Resize(x->a, FmEntry, (size_t)cap);
    if (a == NULL)
        goto nomem;
    x->a = a;
    x->cap = cap;
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

static inline int
fm_append(FmVec *x, FmEntry e)
{
    if (x->len == x->cap && fm_reserve(x, x->len + 1) < 0)
        return -1;
    x->a[x->len++] = e;
    return 0;
}

/* heapq._siftdown / _siftup / heappush / heappop, line for line. */
static void
fm_siftdown(FmEntry *h, Py_ssize_t startpos, Py_ssize_t pos)
{
    FmEntry newitem = h[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (!fm_lt(&newitem, &h[parentpos]))
            break;
        h[pos] = h[parentpos];
        pos = parentpos;
    }
    h[pos] = newitem;
}

static void
fm_siftup(FmEntry *h, Py_ssize_t endpos, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos;
    FmEntry newitem = h[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !fm_lt(&h[childpos], &h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    fm_siftdown(h, startpos, pos);
}

static inline int
fm_heappush(FmVec *h, FmEntry e)
{
    if (fm_append(h, e) < 0)
        return -1;
    fm_siftdown(h->a, 0, h->len - 1);
    return 0;
}

static inline FmEntry
fm_heappop(FmVec *h)
{
    FmEntry last = h->a[--h->len];
    if (h->len == 0)
        return last;
    FmEntry top = h->a[0];
    h->a[0] = last;
    fm_siftup(h->a, h->len, 0);
    return top;
}

/* bisect.insort (bisect_right) into the sorted deferred list. */
static int
fm_insort(FmVec *x, FmEntry e)
{
    Py_ssize_t lo = 0, hi = x->len;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (fm_lt(&e, &x->a[mid]))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (fm_append(x, e) < 0)
        return -1;
    memmove(&x->a[lo + 1], &x->a[lo], (size_t)(x->len - 1 - lo) * sizeof(FmEntry));
    x->a[lo] = e;
    return 0;
}

/* A 1-D C-contiguous buffer of `itemsize`-byte items whose one-character
 * struct format is in `formats`. */
static int
fm_buffer(PyObject *obj, Py_buffer *view, const char *name, const char *formats,
          Py_ssize_t itemsize, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *f = view->format;
    if (view->ndim != 1 || view->itemsize != itemsize || f == NULL || f[0] == '\0'
        || f[1] != '\0' || strchr(formats, f[0]) == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "fm_pass: %s must be a 1-D contiguous array of %zd-byte '%s' items",
                     name, itemsize, formats);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* `off` has rows + 1 entries starting at 0 and ending at nval, each row
 * at least `min_row` long; every value lies in [0, bound). */
static int
fm_check_csr(const char *name, const int64_t *off, Py_ssize_t rows,
             const int64_t *val, Py_ssize_t nval, Py_ssize_t bound, int min_row)
{
    if (off[0] != 0 || off[rows] != nval) {
        PyErr_Format(PyExc_ValueError,
                     "fm_pass: %s offsets must run from 0 to %zd", name, nval);
        return -1;
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        /* off[r] is in [0, nval] by induction, so the sum cannot overflow. */
        if (off[r + 1] < off[r] + min_row || off[r + 1] > nval) {
            PyErr_Format(PyExc_ValueError,
                         "fm_pass: %s offsets are out of order at row %zd", name, r);
            return -1;
        }
    }
    for (Py_ssize_t i = 0; i < nval; i++) {
        if (val[i] < 0 || val[i] >= bound) {
            PyErr_Format(PyExc_ValueError,
                         "fm_pass: %s value %lld at %zd is outside [0, %zd)", name,
                         (long long)val[i], i, bound);
            return -1;
        }
    }
    return 0;
}

static int
fm_check_finite(const char *name, const double *x, Py_ssize_t len)
{
    for (Py_ssize_t i = 0; i < len; i++) {
        if (!isfinite(x[i])) {
            PyErr_Format(PyExc_ValueError, "fm_pass: %s[%zd] is not finite", name, i);
            return -1;
        }
    }
    return 0;
}

static inline FmKey
fm_state_key(double w0, double cum, double lo, double hi, double target0)
{
    FmKey key;
    key.infeasible = !(lo - 1e-12 <= w0 && w0 <= hi + 1e-12);
    key.neg_cum = -cum;
    key.dev = fabs(w0 - target0);
    return key;
}

/* The pass itself on validated arrays; 1 if improved, 0 if not, -1 on a
 * failed allocation. `side` is updated in place to the best prefix. */
static int
fm_run(Py_ssize_t n, Py_ssize_t m, const double *vw, const double *nw,
       const int64_t *xpins, const int64_t *pins, const int64_t *xnets,
       const int64_t *vnets, signed char *side, double w0, double lo, double hi,
       double target0)
{
    int rc = -1;
    Py_ssize_t *cnt0 = PyMem_New(Py_ssize_t, (size_t)m);
    Py_ssize_t *cnt1 = PyMem_New(Py_ssize_t, (size_t)m);
    double *gains = PyMem_New(double, (size_t)n);
    long long *stamps = PyMem_Calloc((size_t)n, sizeof(long long));
    signed char *side_l = PyMem_New(signed char, (size_t)n);
    char *locked = PyMem_Calloc((size_t)n, 1);
    char *is_touched = PyMem_Calloc((size_t)n, 1);
    Py_ssize_t *touched = PyMem_New(Py_ssize_t, (size_t)n);
    Py_ssize_t *moves = PyMem_New(Py_ssize_t, (size_t)n);
    FmVec heap = {NULL, 0, 0}, deferred = {NULL, 0, 0}, redeferred = {NULL, 0, 0};
    if (!cnt0 || !cnt1 || !gains || !stamps || !side_l || !locked || !is_touched
        || !touched || !moves || fm_reserve(&heap, n) < 0) {
        PyErr_NoMemory();
        goto out;
    }
    memcpy(side_l, side, (size_t)n);

    for (Py_ssize_t e = 0; e < m; e++) {
        Py_ssize_t ones = 0;
        for (int64_t p = xpins[e]; p < xpins[e + 1]; p++)
            ones += side_l[pins[p]];
        cnt1[e] = ones;
        cnt0[e] = (Py_ssize_t)(xpins[e + 1] - xpins[e]) - ones;
    }
    for (Py_ssize_t v = 0; v < n; v++) {
        double g = 0.0;
        for (int64_t k = xnets[v]; k < xnets[v + 1]; k++) {
            int64_t e = vnets[k];
            Py_ssize_t same = side_l[v] ? cnt1[e] : cnt0[e];
            Py_ssize_t oth = side_l[v] ? cnt0[e] : cnt1[e];
            double w = nw[e];
            g = g + (same == 1 ? w : 0.0);
            g = g + (oth == 0 ? -w : 0.0);
        }
        gains[v] = g;
        heap.a[v].neg_gain = -g;
        heap.a[v].v = v;
        heap.a[v].stamp = 0;
    }
    heap.len = n;
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--)
        fm_siftup(heap.a, n, i);

    Py_ssize_t n_moves = 0, n_touched = 0;
    double cum = 0.0;
    FmKey initial_key = fm_state_key(w0, 0.0, lo, hi, target0);
    FmKey best_key = initial_key;
    Py_ssize_t best_idx = 0;
    Py_ssize_t dptr = 0;
    double dev0 = fabs(w0 - target0);
    double d0_min = INFINITY, d1_min = INFINITY;
    double d0_max = -INFINITY, d1_max = -INFINITY;
    int scan_deferred = 1;
    double slack = 1e-9 * (fabs(target0) + fabs(lo) + fabs(hi) + 1.0);

    for (;;) {
        FmEntry entry;
        if (scan_deferred && dptr < deferred.len
            && (heap.len == 0 || fm_le(&deferred.a[dptr], &heap.a[0])))
            entry = deferred.a[dptr++];
        else if (heap.len)
            entry = fm_heappop(&heap);
        else
            break;
        Py_ssize_t v = (Py_ssize_t)entry.v;
        if (locked[v] || entry.stamp != stamps[v])
            continue;
        double new_w0 = side_l[v] == 0 ? w0 - vw[v] : w0 + vw[v];
        if (!(lo <= new_w0 && new_w0 <= hi) && !(fabs(new_w0 - target0) < dev0)) {
            double wv = vw[v];
            if (side_l[v] == 0) {
                if (wv < d0_min)
                    d0_min = wv;
                if (wv > d0_max)
                    d0_max = wv;
            }
            else {
                if (wv < d1_min)
                    d1_min = wv;
                if (wv > d1_max)
                    d1_max = wv;
            }
            if (scan_deferred ? fm_append(&redeferred, entry) : fm_insort(&deferred, entry))
                goto out;
            continue;
        }
        /* Apply the move. */
        int src = side_l[v];
        int dst = 1 - src;
        Py_ssize_t *cnt_src = src ? cnt1 : cnt0;
        Py_ssize_t *cnt_dst = src ? cnt0 : cnt1;
        for (int64_t k = xnets[v]; k < xnets[v + 1]; k++) {
            int64_t e = vnets[k];
            double w = nw[e];
            const int64_t *net = pins + xpins[e], *net_end = pins + xpins[e + 1];
            Py_ssize_t cd = cnt_dst[e];
#define FM_TOUCH(u, op)                                                        \
    do {                                                                       \
        gains[u] = gains[u] op w;                                              \
        if (!is_touched[u]) {                                                  \
            is_touched[u] = 1;                                                 \
            touched[n_touched++] = (Py_ssize_t)(u);                            \
        }                                                                      \
    } while (0)
            if (cd == 0) {
                for (const int64_t *u = net; u < net_end; u++)
                    if (!locked[*u] && *u != v)
                        FM_TOUCH(*u, +);
            }
            else if (cd == 1) {
                for (const int64_t *u = net; u < net_end; u++)
                    if (side_l[*u] == dst && !locked[*u])
                        FM_TOUCH(*u, -);
            }
            Py_ssize_t cs = cnt_src[e] - 1;
            cnt_src[e] = cs;
            cnt_dst[e] = cd + 1;
            if (cs == 0) {
                for (const int64_t *u = net; u < net_end; u++)
                    if (!locked[*u] && *u != v)
                        FM_TOUCH(*u, -);
            }
            else if (cs == 1) {
                for (const int64_t *u = net; u < net_end; u++)
                    if (side_l[*u] == src && !locked[*u] && *u != v)
                        FM_TOUCH(*u, +);
            }
#undef FM_TOUCH
        }
        for (Py_ssize_t i = 0; i < n_touched; i++) {
            Py_ssize_t u = touched[i];
            is_touched[u] = 0;
            FmEntry fresh = {-gains[u], (long long)u, ++stamps[u]};
            if (fm_heappush(&heap, fresh) < 0)
                goto out;
        }
        n_touched = 0;
        cum += -entry.neg_gain;
        side_l[v] = (signed char)dst;
        w0 = new_w0;
        dev0 = fabs(w0 - target0);
        locked[v] = 1;
        moves[n_moves++] = v;
        FmKey key = fm_state_key(w0, cum, lo, hi, target0);
        if (fm_key_lt(&key, &best_key)) {
            best_key = key;
            best_idx = n_moves;
        }
        if (redeferred.len || dptr) {
            Py_ssize_t tail = deferred.len - dptr;
            if (tail) {
                if (fm_reserve(&redeferred, redeferred.len + tail) < 0)
                    goto out;
                memcpy(&redeferred.a[redeferred.len], &deferred.a[dptr],
                       (size_t)tail * sizeof(FmEntry));
                redeferred.len += tail;
            }
            FmVec swap = deferred;
            deferred = redeferred;
            redeferred = swap;
            redeferred.len = 0;
            dptr = 0;
        }
        /* may_unblock(), verbatim. */
        int unblock = deferred.len == 0;
        if (!unblock && d0_max >= d0_min) {
            if (d0_max >= w0 - hi - slack && d0_min <= w0 - lo + slack)
                unblock = 1;
            else {
                double delta = w0 - target0;
                if (d0_max > delta - dev0 - slack && d0_min < delta + dev0 + slack)
                    unblock = 1;
            }
        }
        if (!unblock && d1_max >= d1_min) {
            if (d1_max >= lo - w0 - slack && d1_min <= hi - w0 + slack)
                unblock = 1;
            else {
                double delta = target0 - w0;
                if (d1_max > delta - dev0 - slack && d1_min < delta + dev0 + slack)
                    unblock = 1;
            }
        }
        scan_deferred = unblock;
    }

    /* Roll back to the best prefix. */
    for (Py_ssize_t i = best_idx; i < n_moves; i++)
        side_l[moves[i]] = (signed char)(1 - side_l[moves[i]]);
    memcpy(side, side_l, (size_t)n);
    rc = fm_key_lt(&best_key, &initial_key);
out:
    PyMem_Free(cnt0);
    PyMem_Free(cnt1);
    PyMem_Free(gains);
    PyMem_Free(stamps);
    PyMem_Free(side_l);
    PyMem_Free(locked);
    PyMem_Free(is_touched);
    PyMem_Free(touched);
    PyMem_Free(moves);
    PyMem_Free(heap.a);
    PyMem_Free(deferred.a);
    PyMem_Free(redeferred.a);
    return rc;
}

/* fm_pass(vertex_weights, net_weights, xpins, pins, xnets, vnets, side,
 *         w0, lo, hi, target0) -> bool */
static PyObject *
core_fm_pass(PyObject *self, PyObject *args)
{
    static const struct {
        const char *name, *formats;
        Py_ssize_t itemsize;
        int writable;
    } spec[7] = {
        {"vertex_weights", "d", 8, 0}, {"net_weights", "d", 8, 0},
        {"xpins", "lq", 8, 0},         {"pins", "lq", 8, 0},
        {"xnets", "lq", 8, 0},         {"vnets", "lq", 8, 0},
        {"side", "b", 1, 1},
    };
    PyObject *obj[7];
    Py_buffer buf[7];
    double w0, lo, hi, target0;
    if (!PyArg_ParseTuple(args, "OOOOOOOdddd:fm_pass", &obj[0], &obj[1], &obj[2],
                          &obj[3], &obj[4], &obj[5], &obj[6], &w0, &lo, &hi, &target0))
        return NULL;
    PyObject *result = NULL;
    int got = 0;
    for (; got < 7; got++)
        if (fm_buffer(obj[got], &buf[got], spec[got].name, spec[got].formats,
                      spec[got].itemsize, spec[got].writable) < 0)
            goto done;
    const double *vw = buf[0].buf, *nw = buf[1].buf;
    const int64_t *xpins = buf[2].buf, *pins = buf[3].buf;
    const int64_t *xnets = buf[4].buf, *vnets = buf[5].buf;
    signed char *side = buf[6].buf;
    Py_ssize_t n = buf[0].shape[0], m = buf[1].shape[0], npins = buf[3].shape[0];
    if (buf[2].shape[0] != m + 1 || buf[4].shape[0] != n + 1
        || buf[5].shape[0] != npins || buf[6].shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "fm_pass: array lengths disagree");
        goto done;
    }
    if (fm_check_csr("xpins/pins", xpins, m, pins, npins, n, 1) < 0
        || fm_check_csr("xnets/vnets", xnets, n, vnets, npins, m, 0) < 0
        || fm_check_finite("vertex_weights", vw, n) < 0
        || fm_check_finite("net_weights", nw, m) < 0)
        goto done;
    for (Py_ssize_t v = 0; v < n; v++) {
        if (side[v] != 0 && side[v] != 1) {
            PyErr_Format(PyExc_ValueError, "fm_pass: side[%zd] is %d, not 0 or 1", v,
                         (int)side[v]);
            goto done;
        }
    }
    int improved = fm_run(n, m, vw, nw, xpins, pins, xnets, vnets, side, w0, lo, hi,
                          target0);
    if (improved >= 0)
        result = PyBool_FromLong(improved);
done:
    while (got-- > 0)
        PyBuffer_Release(&buf[got]);
    return result;
}

static PyMethodDef core_methods[] = {
    {"run", core_run, METH_VARARGS,
     "run(engine, until) -> int: drain the engine's event structures in "
     "(time, seq) order; 1 when stopped at the horizon, 0 when drained."},
    {"fm_pass", core_fm_pass, METH_VARARGS,
     "fm_pass(vertex_weights, net_weights, xpins, pins, xnets, vnets, side, "
     "w0, lo, hi, target0) -> bool: one FM refinement pass, side updated in "
     "place; the compiled form of repro.balance.partition._fm_pass."},
    {"setup", core_setup, METH_VARARGS,
     "setup(Process, Timeout, Request, SimulationError, Resource, "
     "timeout_pool, FusedOp, TraceRecorder): register the engine's "
     "collaborator classes and the shared Timeout freelist."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "_engine_core",
    "Compiled run loop for the repro discrete-event engine.",
    -1,
    core_methods,
};

PyMODINIT_FUNC
PyInit__engine_core(void)
{
    PyObject *heapq = PyImport_ImportModule("_heapq");
    if (heapq == NULL) {
        PyErr_Clear();
        heapq = PyImport_ImportModule("heapq");
        if (heapq == NULL)
            return NULL;
    }
    g_heappush = PyObject_GetAttrString(heapq, "heappush");
    g_heappop = PyObject_GetAttrString(heapq, "heappop");
    Py_DECREF(heapq);
    if (g_heappush == NULL || g_heappop == NULL)
        return NULL;

#define INTERN(var, text)                                                      \
    do {                                                                       \
        var = PyUnicode_InternFromString(text);                                \
        if (var == NULL)                                                       \
            return NULL;                                                       \
    } while (0)
#define INTERN_ATTR(name, text) INTERN((name)->str, text)

    INTERN_ATTR(s_heap, "_heap");
    INTERN_ATTR(s_ready, "_ready");
    INTERN_ATTR(s_seq, "_seq");
    INTERN_ATTR(s_now, "now");
    INTERN_ATTR(s_events_dispatched, "events_dispatched");
    INTERN_ATTR(s_ready_dispatched, "ready_dispatched");
    INTERN_ATTR(s_timeout_allocs, "timeout_allocs");
    INTERN_ATTR(s_grant_resumes, "grant_resumes");
    INTERN(s_popleft, "popleft");
    INTERN(s_append, "append");
    INTERN_ATTR(s_done, "done");
    INTERN_ATTR(s_cancelled, "cancelled");
    INTERN_ATTR(s_send, "_send");
    INTERN_ATTR(s_resume_attr, "_resume");
    INTERN_ATTR(s_engine, "engine");
    INTERN_ATTR(s_delay, "delay");
    INTERN_ATTR(s_name, "name");
    INTERN_ATTR(s_value, "value");
    INTERN(s_finish, "_finish");
    INTERN(s_activate, "activate");
    INTERN(s_release, "release");
    INTERN(s_resume_pub, "resume");
    INTERN_ATTR(s_pre, "pre");
    INTERN_ATTR(s_nic, "nic");
    INTERN_ATTR(s_hold, "hold");
    INTERN_ATTR(s_post, "post");
    INTERN_ATTR(s_trace, "trace");
    INTERN_ATTR(s_src, "src");
    INTERN_ATTR(s_category, "category");
    INTERN_ATTR(s_counter, "counter");
    INTERN_ATTR(s_amount, "amount");
    INTERN_ATTR(s_proc, "proc");
    INTERN_ATTR(s_start, "start");
    INTERN_ATTR(s_phase, "phase");
    INTERN_ATTR(s_idx, "idx");
    INTERN_ATTR(s_holding, "holding");
    INTERN_ATTR(s_result, "result");
    INTERN_ATTR(s_step, "_step");
    INTERN_ATTR(s_chain, "chain");
    INTERN_ATTR(s_pos, "pos");
    INTERN_ATTR(s_end, "end");
    INTERN_ATTR(s_duration, "duration");
    INTERN_ATTR(s_tid, "tid");
    INTERN_ATTR(s_claim, "claim");
    INTERN(s_record_compute, "record_compute");
    INTERN(s_advance_name, "_advance");
    INTERN_ATTR(s_in_use, "in_use");
    INTERN_ATTR(s_capacity, "capacity");
    INTERN_ATTR(s_total_acquisitions, "total_acquisitions");
    INTERN_ATTR(s_total_waits, "total_waits");
    INTERN_ATTR(s_queue, "_queue");
    INTERN(s_deliver_name, "_deliver_grant");
    INTERN(s_record, "record");
    INTERN_ATTR(s_totals, "_totals");
    INTERN_ATTR(s_intervals, "intervals");
    INTERN_ATTR(s_records, "records");
#undef INTERN_ATTR
#undef INTERN

    return PyModule_Create(&core_module);
}
