/* Compiled run loop for repro.simulate.engine.Engine.
 *
 * This extension moves the hottest frames of the discrete-event
 * simulator -- Engine.run(), the Process.resume() Timeout fast path,
 * Resource._deliver_grant() and the walk of fused network operations (the
 * FusedOp type defined here) -- out of the interpreter. Between runs the
 * engine's data layout is the pure-Python engine's (the `_heap` list of
 * (time, seq, callback) tuples, the `_ready` deque of (seq, callback,
 * arg) tuples, the `_seq` counter, the `now` float and the dispatch
 * counters), so Python-side scheduling (SimEvent.fire, Resource grants,
 * call_now from callbacks) interleaves with the C loop exactly as it does
 * with the Python loop. Attributes of the engine's collaborators are read
 * and written where Python keeps them: a `__slots__` member is loaded and
 * stored at the byte offset its class's own member descriptor states
 * (get_attr/set_attr below); everything else -- an unset slot, a shadowed
 * name, a duck-typed collaborator, a class mutated since -- goes through
 * PyObject_GetAttr/SetAttr, so errors and fallbacks are the attribute
 * protocol's own.
 *
 * For the whole of one core_run() call the engine's state lives in C,
 * and Python sees it only at a *call out* (call_out below: a generator
 * send, _finish, activate, a claim callable, a fallback method, a
 * generic callback):
 *
 * - the **clock and the seq counter** are C scalars. call_out publishes
 *   both to `engine.now` / `engine._seq` before it calls (writing only
 *   what changed, one float per timestamp) and reads the counter back
 *   after. Python that runs between two calls out (a finalizer the core
 *   triggers) and schedules an event would make the core reuse a seq, and
 *   a call out that sets `engine.now` would move a clock only the loop
 *   moves; call_out finds the attributes no longer hold what it published
 *   and raises SimulationError instead.
 *
 * - the **timeout-event heap**: a binary heap of plain C structs
 *   {time, seq, obj, kind} for timed Timeout wake-ups and timed fused-op
 *   steps: no tuple, no boxed key, no heapq call. The buffer is
 *   recycled across runs.
 *
 * - the **run-queue**: a FIFO of {seq, kind, obj, arg} for zero-delay
 *   fused-op steps, fused-op NIC grants on an exact Resource, the grants
 *   an exact Resource's release hands to its next waiter, and Timeout(0)
 *   resumes: no tuple, no bound method, no deque call. The
 *   loop fires the lowest seq across it, `engine._ready` and the due
 *   heap head, so both queues stay in seq order and merge exactly.
 *
 * On every exit (drained, horizon, raised) the heap is flushed into
 * `engine._heap` and the run-queue merged into `engine._ready` by seq,
 * as ordinary tuples, and the clock and counter are published: the
 * engine's observable state after run() is the Python engine's.
 *
 * Consumed ``Timeout`` request objects are recycled into the Python-side
 * freelist shared with ``pooled_timeout`` when their refcount proves
 * sole ownership -- the C half of the allocation-free Timeout cycle.
 *
 * The core runs the processes and fused ops of the engine it was handed
 * and no other: a Process or FusedOp whose `engine` is another engine
 * raises SimulationError where it would take a seq (foreign_engine).
 *
 * Bit-for-bit contract: every control-flow branch here mirrors a line of
 * Engine.run / Process.resume / Resource._deliver_grant; `now + delay`
 * is the same IEEE-754 double addition CPython performs; seq allocation
 * and the heap/run-queue interleave rule are identical (the C heap and
 * the Python heap are merged by the full (time, seq) key, and seqs are
 * globally unique). The golden-digest suites are run under
 * REPRO_ENGINE=compiled in CI to pin this.
 *
 * The same extension carries the balancers' array kernels, at the end of
 * this file: the partitioner's FM refinement pass (fm_pass), the greedy
 * semi-matching loop, one refinement sweep of the weighted semi-matching
 * and the LPT loop. Plain arrays in, no call into Python, nothing shared
 * with the engine but the build, selected by the same REPRO_ENGINE mode.
 *
 * Built on demand by repro.simulate.sched (cc -O2 -fPIC -shared); no
 * third-party headers, C99 + Python.h only.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <structmember.h> /* T_OBJECT_EX */

/* The sha256 of this file, as setup.py and sched._build_extension pass
 * it; the loader uses a build only when it matches the shipped source. */
#ifndef REPRO_SOURCE_DIGEST
#define REPRO_SOURCE_DIGEST ""
#endif

/* Registered by setup(): the engine's collaborator classes. */
static PyObject *g_timeout_cls = NULL;
static PyObject *g_request_cls = NULL;
static PyObject *g_sim_error = NULL;
static PyObject *g_resume_func = NULL;  /* Process.resume, the plain function */
static PyObject *g_deliver_func = NULL; /* Resource._deliver_grant, plain function */
static PyObject *g_timeout_pool = NULL; /* engine._timeout_pool, shared freelist */
static PyObject *g_resource_cls = NULL; /* engine.Resource */
static PyObject *g_process_cls = NULL;  /* engine.Process */
static PyObject *g_trace_cls = NULL;    /* runtime.trace.TraceRecorder */
static PyObject *g_heappush = NULL;
static PyObject *g_heappop = NULL;
static PyTypeObject *g_deque_type = NULL; /* collections.deque */

/* Where instances of `type` keep one `__slots__` member. */
typedef struct {
    PyTypeObject *type;   /* compared, never dereferenced */
    unsigned int version; /* type->tp_version_tag when resolved */
    Py_ssize_t offset;    /* of the PyObject* in the instance; -1: not native */
} SlotWay;

/* An interned attribute name plus where the two types last seen with it
 * keep it (`value` is read on a SharedCell and a StopIteration, `in_use`
 * on a Resource and its subclass; no name is hot on three). Declared as
 * one-element arrays so a name is passed by pointer without `&`. */
typedef struct {
    PyObject *str;
    SlotWay way[2];
} AttrName;

static AttrName s_heap[1], s_ready[1], s_seq[1], s_now[1];
static AttrName s_events_dispatched[1], s_ready_dispatched[1];
static AttrName s_timeout_allocs[1], s_grant_resumes[1];
static AttrName s_done[1], s_cancelled[1], s_send[1], s_engine[1];
static AttrName s_delay[1], s_name[1], s_value[1], s_tag[1];
static AttrName s_in_use[1], s_capacity[1], s_total_acquisitions[1];
static AttrName s_total_waits[1], s_queue[1];
static AttrName s_totals[1], s_intervals[1], s_records[1];
static AttrName s_task_ids[1], s_task_ranks[1], s_task_starts[1], s_task_ends[1];

/* Interned method names: always looked up through the type. */
static PyObject *s_popleft, *s_append, *s_clear, *s_finish, *s_activate, *s_release;
static PyObject *s_pop, *s_extend, *s_capsule;
static PyObject *s_advance_name, *s_deliver_name, *s_record;
static PyObject *s_record_compute, *s_compute;

/* What firing a C-held event means: resume a Process, advance a fused
 * network op, or deliver a NIC grant to a fused op (run-queue only). */
enum { EV_RESUME = 0, EV_FUSED = 1, EV_GRANT = 2 };

/* One timed wake-up held C-side: at (time, seq), either resume a
 * Process (EV_RESUME) or advance a fused network op (EV_FUSED). */
typedef struct {
    double time;
    long long seq;
    PyObject *obj; /* owned: the Process or the FusedOp */
    int kind;
} CEvent;

/* One zero-delay entry of the core's run-queue: at seq, resume `obj`
 * (EV_RESUME), advance op `obj` (EV_FUSED) or deliver Resource `obj`'s
 * grant to op `arg` (EV_GRANT). */
typedef struct {
    long long seq;
    PyObject *obj; /* owned */
    PyObject *arg; /* owned, or NULL */
    int kind;
} QEntry;

typedef struct {
    PyObject *engine;       /* borrowed */
    PyObject *heap;         /* owned; the engine's _heap list */
    PyObject *ready;        /* owned; the engine's _ready deque */
    CEvent *ch;             /* C timeout-event heap (binary heap array) */
    Py_ssize_t ch_len, ch_cap;
    int ch_owned; /* buffer is ours to free (spare was busy) */
    QEntry *q;    /* the run-queue: a ring of capacity q_cap (a power of 2) */
    Py_ssize_t q_head, q_len, q_cap;
    /* engine.now and engine._seq while the run lasts. now_obj is a float
     * equal to `now` (NULL until one is needed); pub_now and pub_seq are
     * the objects the attributes held at the last publish or read-back. */
    double now;
    long long seq;
    PyObject *now_obj, *pub_now, *pub_seq; /* owned */
    long long pub_seq_val;                 /* the value of pub_seq */
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

/* Append to the run-queue; takes new references to obj and arg. */
static int
q_push(RunCtx *ctx, long long seq, int kind, PyObject *obj, PyObject *arg)
{
    if (ctx->q_len == ctx->q_cap) {
        Py_ssize_t cap = ctx->q_cap ? ctx->q_cap * 2 : 64;
        QEntry *data = (QEntry *)malloc((size_t)cap * sizeof(QEntry));
        if (data == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < ctx->q_len; i++)
            data[i] = ctx->q[(ctx->q_head + i) & (ctx->q_cap - 1)];
        free(ctx->q);
        ctx->q = data;
        ctx->q_head = 0;
        ctx->q_cap = cap;
    }
    QEntry *e = &ctx->q[(ctx->q_head + ctx->q_len++) & (ctx->q_cap - 1)];
    e->seq = seq;
    e->kind = kind;
    e->obj = Py_NewRef(obj);
    e->arg = Py_XNewRef(arg);
    return 0;
}

/* Pop the run-queue head; the caller owns its references. Only call
 * with q_len > 0. */
static QEntry
q_pop(RunCtx *ctx)
{
    QEntry e = ctx->q[ctx->q_head];
    ctx->q_head = (ctx->q_head + 1) & (ctx->q_cap - 1);
    ctx->q_len--;
    return e;
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

/* ---- the hand-off: the only two ways the core calls an object ---- */

/* engine.now as an object, borrowed: the one made for this timestamp,
 * or the one Python stored. */
static PyObject *
now_obj(RunCtx *ctx)
{
    if (ctx->now_obj == NULL)
        ctx->now_obj = PyFloat_FromDouble(ctx->now);
    return ctx->now_obj;
}

/* Write the clock and the counter to engine.now / engine._seq where they
 * changed, after checking that the attributes still hold what the core
 * last published or read back. Anything else is Python that ran between
 * two calls out; continuing would reuse a seq. */
static int
publish(RunCtx *ctx)
{
    PyObject *cur_now = get_attr(ctx->engine, s_now);
    if (cur_now == NULL)
        return -1;
    Py_DECREF(cur_now); /* the engine keeps it alive; only compared */
    PyObject *cur_seq = get_attr(ctx->engine, s_seq);
    if (cur_seq == NULL)
        return -1;
    Py_DECREF(cur_seq);
    if (cur_now != ctx->pub_now || cur_seq != ctx->pub_seq) {
        PyErr_SetString(g_sim_error,
                        "engine.now or engine._seq changed while the compiled "
                        "core held them: Python ran outside a call out (a "
                        "finalizer that scheduled an event?) or set engine.now");
        return -1;
    }
    PyObject *now = now_obj(ctx);
    if (now == NULL)
        return -1;
    if (now != ctx->pub_now) {
        if (set_attr(ctx->engine, s_now, now) < 0)
            return -1;
        Py_SETREF(ctx->pub_now, Py_NewRef(now));
    }
    if (ctx->seq != ctx->pub_seq_val) {
        PyObject *seq = PyLong_FromLongLong(ctx->seq);
        if (seq == NULL || set_attr(ctx->engine, s_seq, seq) < 0) {
            Py_XDECREF(seq);
            return -1;
        }
        Py_SETREF(ctx->pub_seq, seq);
        ctx->pub_seq_val = ctx->seq;
    }
    return 0;
}

/* Take back engine._seq after Python ran (it schedules events). Only the
 * run loop moves engine.now, as in Engine.run; a call out that set it is
 * caught by the next publish. */
static int
read_back(RunCtx *ctx)
{
    PyObject *v = get_attr(ctx->engine, s_seq);
    if (v == NULL)
        return -1;
    if (v != ctx->pub_seq) {
        long long seq = PyLong_AsLongLong(v);
        if (seq == -1 && PyErr_Occurred()) {
            Py_DECREF(v);
            return -1;
        }
        ctx->seq = ctx->pub_seq_val = seq;
        Py_SETREF(ctx->pub_seq, v);
    }
    else
        Py_DECREF(v);
    return 0;
}

/* Call into Python: `callable(*args)`, or with `name` the method
 * args[0].name(*args[1:]). Publishes the clock and counter first and
 * reads the counter back after, also when the call raised. Every call that may
 * run Python code goes through here (tests/simulate/test_engine_core_lint.py). */
static PyObject *
call_out(RunCtx *ctx, PyObject *callable, PyObject *name, PyObject *const *args,
         size_t nargs)
{
    if (publish(ctx) < 0)
        return NULL;
    PyObject *r = name != NULL ? PyObject_VectorcallMethod(name, args, nargs, NULL)
                               : PyObject_Vectorcall(callable, args, nargs, NULL);
    if (r == NULL) {
        PyObject *et, *ev, *etb;
        PyErr_Fetch(&et, &ev, &etb);
        if (read_back(ctx) < 0)
            PyErr_Clear(); /* the call's own error wins */
        PyErr_Restore(et, ev, etb);
        return NULL;
    }
    if (read_back(ctx) < 0) {
        Py_DECREF(r);
        return NULL;
    }
    return r;
}

/* call_out's result discarded: 0, or -1 with the exception set. */
static int
call_out_void(RunCtx *ctx, PyObject *callable, PyObject *name,
              PyObject *const *args, size_t nargs)
{
    PyObject *r = call_out(ctx, callable, name, args, nargs);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* A call that runs no Python code and so needs no hand-off: heapq's C
 * heappush/heappop on a heap of (float, int, callback) tuples (seqs are
 * unique, so no compare reaches a callback) or a method of an exact
 * collections.deque. The lint test holds every use to that list. */
static PyObject *
call_c(PyObject *callable, PyObject *name, PyObject *const *args, size_t nargs)
{
    return name != NULL ? PyObject_VectorcallMethod(name, args, nargs, NULL)
                        : PyObject_Vectorcall(callable, args, nargs, NULL);
}

/* queue.append(item) for engine._ready, which core_run checks is an
 * exact deque, or a Resource's _queue, which Resource builds as one; any
 * other queue is refused rather than called. */
static int
queue_append(PyObject *queue, PyObject *item)
{
    if (!Py_IS_TYPE(queue, g_deque_type)) {
        PyErr_SetString(PyExc_TypeError, "a Resource's _queue must be a collections.deque");
        return -1;
    }
    PyObject *args[2] = {queue, item};
    PyObject *r = call_c(NULL, s_append, args, 2);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* A 1-D C-contiguous buffer of `itemsize`-byte items whose one-character
 * struct format is in `formats`; `fn` names the kernel (or the claim
 * source) in errors. Shared by the array kernels and a fused op's task
 * table. */
static int
k_buffer(const char *fn, PyObject *obj, Py_buffer *view, const char *name,
         const char *formats, Py_ssize_t itemsize, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *f = view->format;
    if (view->ndim != 1 || view->itemsize != itemsize || f == NULL || f[0] == '\0'
        || f[1] != '\0' || strchr(formats, f[0]) == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s: %s must be a 1-D contiguous array of %zd-byte '%s' items",
                     fn, name, itemsize, formats);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

typedef struct {
    const char *name, *formats;
    Py_ssize_t itemsize;
    int writable;
} KSpec;

/* k_buffer for each of `count` objects: all acquired, or none. */
static int
k_buffers(const char *fn, const KSpec *spec, PyObject **obj, Py_buffer *buf, int count)
{
    for (int i = 0; i < count; i++) {
        if (k_buffer(fn, obj[i], &buf[i], spec[i].name, spec[i].formats,
                     spec[i].itemsize, spec[i].writable) < 0) {
            while (i-- > 0)
                PyBuffer_Release(&buf[i]);
            return -1;
        }
    }
    return 0;
}

static void
k_release(Py_buffer *buf, int count)
{
    while (count-- > 0)
        PyBuffer_Release(&buf[count]);
}

typedef struct FusedOp FusedOp;
static PyTypeObject FusedOpType;
#define IS_OP(o) Py_IS_TYPE(o, &FusedOpType)

static int fused_activate(RunCtx *ctx, FusedOp *op, PyObject *proc);
static int fused_advance(RunCtx *ctx, FusedOp *op);

/* A process or fused op of another engine reached this one's core: its
 * seqs and wake-ups belong to that engine, which the core does not hold. */
static int
foreign_engine(void)
{
    PyErr_SetString(g_sim_error, "the compiled core runs only the processes and "
                                 "fused network ops of the engine it is running");
    return -1;
}

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
    PyObject *request = call_out(ctx, send, NULL, &value, 1);
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
        PyObject *args[2] = {proc, stop_value};
        int rc = call_out_void(ctx, NULL, s_finish, args, 2);
        Py_DECREF(stop_value);
        return rc;
    }

    /* if request.__class__ is Timeout: inline dispatch */
    if ((PyObject *)Py_TYPE(request) == g_timeout_cls) {
        int rc = -1;
        PyObject *engine = get_attr(proc, s_engine);
        if (engine == NULL)
            goto timeout_done;
        Py_DECREF(engine); /* the process keeps it alive; only compared */
        if (engine != ctx->engine) {
            foreign_engine();
            goto timeout_done;
        }
        /* engine.timeout_allocs += 1; seq = engine._seq; engine._seq += 1 */
        ctx->timeout_allocs++;
        long long seq = ctx->seq++;
        PyObject *delayobj = get_attr(request, s_delay);
        double delay = delayobj ? PyFloat_AsDouble(delayobj) : -1.0;
        Py_XDECREF(delayobj);
        if (delay == -1.0 && PyErr_Occurred())
            goto timeout_done;
        /* The request's delay is consumed; recycle the object into the
         * freelist shared with pooled_timeout when we hold the only
         * reference (the generator yielded a fresh instance). */
        if (Py_REFCNT(request) == 1 && g_timeout_pool != NULL) {
            if (PyList_Append(g_timeout_pool, request) < 0)
                PyErr_Clear(); /* best-effort: recycling is an optimization */
        }
        /* (seq, self._resume, None) into the core's run-queue, or
         * (now + delay, seq, self._resume) into its event heap; the exit
         * flush hands either to engine._ready / engine._heap. */
        rc = delay == 0.0 ? q_push(ctx, seq, EV_RESUME, proc, NULL)
                          : cheap_push(ctx, ctx->now + delay, seq, proc, EV_RESUME);
    timeout_done:
        Py_DECREF(request);
        return rc;
    }

    /* Fused network op: run its activation (and the whole program walk)
     * compiled. Exact-type check, like the Timeout branch. */
    if (IS_OP(request)) {
        int rc = fused_activate(ctx, (FusedOp *)request, proc);
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
    PyObject *args[3] = {request, engine, proc};
    int rc = call_out_void(ctx, NULL, s_activate, args, 3);
    Py_DECREF(request);
    Py_DECREF(engine);
    return rc;
}

/* ---- fused network operations (FusedOp): the only walker ----
 *
 * A fused op is a precomputed (pre, hold, post) delay program that the
 * reference engine runs as the Network._walk generator. Here the walk
 * runs in C, with the op's C fields as its state: timed steps go straight
 * into the C event heap, zero-delay ones into the run-queue -- no tuple,
 * no boxed key, no Python frame, no Timeout per delay. An op with a
 * `chain` is a whole task: when one step completes the walker arms the
 * next from the run's flat step list, so the process's generator is
 * re-entered once per task, not once per operation -- or once per claim
 * loop, when the op's claim source (read here, see Claims) loads the
 * next slice each time one runs out, or once per idle pass of steal
 * attempts. Every seq is allocated and every trace record made at the
 * dispatch where the generators (Network._walk, Harness._walk_task, the
 * models' claim loops and WorkStealing._attempt_steal) make theirs, so
 * (time, seq) orders are unchanged; tests/simulate/test_sched.py holds
 * the walker to them.
 *
 * A chain is (steps, nics, node_ids): a flat step list shared by every
 * task of a run, of which steps[pos:end] are the op's. A step is (dst,
 * (tier-0, tier-1, tier-2 program), category), or None for the kernel, a
 * single `duration` delay that counts as the Timeout it stands for, or a
 * category string for a timed wait recorded under it, also a `duration`
 * counted as a Timeout (a failed steal's backoff). A program with no
 * pre-delays is a lock hold: nics[dst] is acquired as the step is armed,
 * and its interval and Timeout begin at the grant. The steps KEEP_LOCK
 * (0), MOVE_TASKS (1) and LAND_TASKS (2) are a steal's: the lock in
 * op.steal is taken and kept across the steps between the first two, and
 * loot moved to a staging queue lands after the unlock write with the
 * third (fused_lock_step). The NIC and lock
 * protocol is Resource's own, with the op queued in place of a process
 * (it has `done` and `engine`). The process is resumed once, when the
 * last step completes and no claim loads another.
 *
 * The op is a type of this module, FusedOp (the type definition follows
 * the walker). Its fields keep the names the Python side reads and
 * writes: the program (trace, src, category, pre, nic, hold, post,
 * counter, amount, chain, pos, end, duration, tid, claim, steal) and the
 * walk (engine, proc, start, phase, idx, count, holding, kept, done,
 * result). Object fields
 * may be deleted from Python; the walker then raises the attribute
 * protocol's own AttributeError. The core queues the op itself, never a
 * bound method of it, so a finished op is freed by reference count. */

typedef struct Claims Claims;

struct FusedOp {
    PyObject_HEAD
    PyObject *trace, *src, *category, *pre, *nic, *hold, *post;
    PyObject *counter, *amount, *chain, *tid, *claim, *steal;
    PyObject *engine, *proc, *start, *result; /* start None: a lock hold's, unset */
    long long pos, end, idx;
    long long count; /* tasks a native claim source armed (a drain: ran) */
    double duration;
    /* 0 pre-delays, 1 queued, 2 holding, 3 post-delays, 4 kernel, 5 a
     * timed wait, 6 queued for the lock it keeps */
    int phase;
    char holding, kept, done; /* kept: holds steal[0] across steps */
    Claims *claims; /* the native claim source `claim` was built from, or NULL */
    PyObject *weakreflist;
};

/* op.<name>, borrowed, or NULL with the attribute protocol's error for a
 * deleted field. */
static PyObject *
op_field(FusedOp *op, PyObject *value, const char *name)
{
    if (value == NULL)
        Py_XDECREF(PyObject_GetAttrString((PyObject *)op, name)); /* raises */
    return value;
}
#define OP_GET(op, field) op_field(op, (op)->field, #field)

/* The op's next step after `delay`: the core's run-queue for zero
 * delays, its event heap otherwise (the op's engine is ctx's, as the
 * callers guarantee). */
static int
fused_dispatch(RunCtx *ctx, FusedOp *op, double delay)
{
    long long seq = ctx->seq++;
    if (delay == 0.0)
        return q_push(ctx, seq, EV_FUSED, (PyObject *)op, NULL);
    return cheap_push(ctx, ctx->now + delay, seq, (PyObject *)op, EV_FUSED);
}

/* The four task columns of a TraceRecorder (ids, ranks, starts, ends)
 * into `cols`, borrowed: 1 when each is a native slot holding an exact
 * list, else 0. */
static int
task_columns(PyObject *trace, PyObject **cols)
{
    AttrName *names[4] = {s_task_ids, s_task_ranks, s_task_starts, s_task_ends};
    for (int i = 0; i < 4; i++) {
        PyObject **p = slot_addr(trace, names[i]);
        if (p == NULL || *p == NULL || !PyList_CheckExact(*p))
            return 0;
        cols[i] = *p;
    }
    return 1;
}

/* trace.record(src, cat, start, end), or with a `tid` (cat is then
 * "compute") trace.record_compute(src, tid, start, end). The method
 * itself runs here -- `totals[rank] += end - start; records += 1`, the
 * same IEEE add, plus for a tid one append to each task column -- when
 * it would do only that: the exact class, no interval log, a known
 * category, exact float bounds with end >= start, an in-range rank and
 * an exact int tid. Any other case calls the method, which validates,
 * logs and raises as ever. Nothing is written before every check has
 * passed. */
static int
trace_record(RunCtx *ctx, PyObject *trace, PyObject *src, PyObject *cat,
             PyObject *tid, PyObject *start, PyObject *end)
{
    PyObject **totals_p, **intervals_p, **records_p;
    PyObject *cols[4];
    if ((PyObject *)Py_TYPE(trace) == g_trace_cls && PyLong_CheckExact(src) &&
        PyUnicode_CheckExact(cat) && PyFloat_CheckExact(start) &&
        PyFloat_CheckExact(end) &&
        (tid == NULL || (PyLong_CheckExact(tid) && task_columns(trace, cols))) &&
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
            if (tid != NULL) {
                PyObject *row[4] = {tid, src, start, end};
                for (int i = 0; i < 4; i++) {
                    if (PyList_Append(cols[i], row[i]) < 0) {
                        Py_DECREF(sum);
                        Py_DECREF(count);
                        return -1;
                    }
                }
            }
            PyList_SetItem(totals, rank, sum); /* steals sum; index checked */
            Py_SETREF(*records_p, count);
            return 0;
        }
    }
    /* held across the call: they may be an op's fields, which Python
     * may rebind while it runs */
    PyObject *args[5] = {trace, src, tid == NULL ? cat : tid, start, end};
    for (int i = 0; i < 5; i++)
        Py_INCREF(args[i]);
    int rc = call_out_void(ctx, NULL, tid == NULL ? s_record : s_record_compute,
                           args, 5);
    for (int i = 0; i < 5; i++)
        Py_DECREF(args[i]);
    return rc;
}

/* How resource_release treats `waiter`, the head of a Resource's queue:
 * 1 passes it by (it is done), 0 grants it here (a live process or fused
 * op of this engine), 2 leaves it to the method (any other waiter); -1
 * with an exception. */
static int
waiter_kind(RunCtx *ctx, PyObject *waiter)
{
    if (IS_OP(waiter)) {
        FusedOp *op = (FusedOp *)waiter;
        return op->done ? 1 : op->engine == ctx->engine ? 0 : 2;
    }
    if ((PyObject *)Py_TYPE(waiter) != g_process_cls)
        return 2;
    PyObject *done = get_attr(waiter, s_done);
    if (done == NULL)
        return -1;
    int is_done = PyObject_IsTrue(done);
    Py_DECREF(done);
    if (is_done != 0)
        return is_done < 0 ? -1 : 1;
    PyObject *engine = get_attr(waiter, s_engine);
    if (engine == NULL)
        return -1;
    Py_DECREF(engine); /* the process keeps it alive; only compared */
    return engine == ctx->engine ? 0 : 2;
}

/* Resource.release's `while queue:` loop over an exact deque: waiters
 * that are done are popped and passed by; the first live one is popped,
 * counted in total_acquisitions and its grant queued with the seq
 * engine.call_now would give it (the FIFO hand-off); with nobody left
 * in_use drops. Returns 0 or -1 as resource_release, or 1 when the head
 * is a waiter the method must grant (waiter_kind's 2). */
static int
hand_off(RunCtx *ctx, PyObject *resource, PyObject *queue, long long in_use)
{
    for (;;) {
        if (Py_SIZE(queue) == 0)
            return set_ll(resource, s_in_use, in_use - 1);
        PyObject *head = PySequence_GetItem(queue, 0);
        int kind = head == NULL ? -1 : waiter_kind(ctx, head);
        if (kind == 2) {
            Py_DECREF(head);
            return 1;
        }
        PyObject *popped = kind < 0 ? NULL : call_c(NULL, s_popleft, &queue, 1);
        Py_XDECREF(popped); /* head, which is still held */
        if (popped == NULL) {
            Py_XDECREF(head);
            return -1;
        }
        if (kind == 1) { /* done: passed by */
            Py_DECREF(head);
            continue;
        }
        long long acq;
        int rc = get_ll(resource, s_total_acquisitions, &acq) < 0 ||
                         set_ll(resource, s_total_acquisitions, acq + 1) < 0
                     ? -1
                     : q_push(ctx, ctx->seq++, EV_GRANT, resource, head);
        Py_DECREF(head);
        return rc;
    }
}

/* resource.release(): the hand-off above for the exact class holding a
 * slot (in_use > 0) over an exact deque. An unmatched release, a
 * subclass, or a waiter of another kind or engine takes the method, so
 * its error and its grant stay where they are. */
static int
resource_release(RunCtx *ctx, PyObject *resource)
{
    PyObject **in_use_p, **queue_p;
    if ((PyObject *)Py_TYPE(resource) == g_resource_cls &&
        (in_use_p = slot_addr(resource, s_in_use)) != NULL &&
        (queue_p = slot_addr(resource, s_queue)) != NULL && *in_use_p != NULL &&
        PyLong_CheckExact(*in_use_p) && *queue_p != NULL &&
        Py_IS_TYPE(*queue_p, g_deque_type)) {
        long long in_use = PyLong_AsLongLong(*in_use_p);
        if (in_use == -1 && PyErr_Occurred())
            PyErr_Clear();
        else if (in_use > 0) {
            PyObject *queue = Py_NewRef(*queue_p);
            int rc = hand_off(ctx, resource, queue, in_use);
            Py_DECREF(queue);
            if (rc <= 0)
                return rc;
        }
    }
    return call_out_void(ctx, NULL, s_release, &resource, 1);
}

/* The op is over: mark it done, resume the waiting process with the
 * op's result. A steal's program that ends keeping its lock is
 * malformed. */
static int
fused_finish(RunCtx *ctx, FusedOp *op)
{
    if (op->kept) {
        PyErr_SetString(PyExc_TypeError, "a fused op's steps end keeping its lock");
        return -1;
    }
    op->done = 1;
    PyObject *proc = OP_GET(op, proc);
    PyObject *result = proc ? OP_GET(op, result) : NULL;
    if (result == NULL)
        return -1;
    Py_INCREF(proc);
    Py_INCREF(result);
    int rc = resume_fast(ctx, proc, result);
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
 * queued in place of a process, which waits in `phase` (1, or 6 for the
 * lock a steal keeps). */
static int
fused_acquire(RunCtx *ctx, FusedOp *op, PyObject *nic, int phase)
{
    long long in_use, capacity;
    op->phase = phase;
    if (get_ll(nic, s_in_use, &in_use) < 0 || get_ll(nic, s_capacity, &capacity) < 0)
        return -1;
    if (in_use < capacity) {
        long long acq;
        if (set_ll(nic, s_in_use, in_use + 1) < 0 ||
            get_ll(nic, s_total_acquisitions, &acq) < 0 ||
            set_ll(nic, s_total_acquisitions, acq + 1) < 0)
            return -1;
        /* engine.call_now(nic._deliver_grant, op) */
        long long seq = ctx->seq++;
        if ((PyObject *)Py_TYPE(nic) == g_resource_cls)
            return q_push(ctx, seq, EV_GRANT, nic, (PyObject *)op);
        PyObject *seqobj = PyLong_FromLongLong(seq);
        PyObject *deliver =
            seqobj == NULL ? NULL : PyObject_GetAttr(nic, s_deliver_name);
        PyObject *tup =
            deliver == NULL ? NULL : PyTuple_Pack(3, seqobj, deliver, (PyObject *)op);
        Py_XDECREF(deliver);
        Py_XDECREF(seqobj);
        if (tup == NULL)
            return -1;
        int rc = queue_append(ctx->ready, tup);
        Py_DECREF(tup);
        return rc;
    }
    long long waits;
    if (get_ll(nic, s_total_waits, &waits) < 0 ||
        set_ll(nic, s_total_waits, waits + 1) < 0)
        return -1;
    PyObject *queue = get_attr(nic, s_queue);
    if (queue == NULL)
        return -1;
    int rc = queue_append(queue, (PyObject *)op);
    Py_DECREF(queue);
    return rc;
}

/* ---- native claim sources ----
 *
 * The claim slot of a claim loop's op may hold, instead of a callable,
 * one of four tuples the core reads itself whenever a slice runs out, so
 * a chained task costs no call into Python:
 *
 *   ("list", tasks, tids): the next id of the exact list `tids`
 *       (Harness.execute_tasks);
 *   ("drain", tasks, queue, pop): after the `pop` chain's lock-hold step,
 *       the head of the exact deque `queue`, until it is empty
 *       (Harness.local_drain; the op's result is how many tasks ran);
 *   ("counter", tasks, fetch_add, cell, sequence, tally): after the
 *       `fetch_add` chain's step on `cell`, its result r -- r >= n_tasks
 *       ends the loop, else task sequence[r] runs and the fetch-add
 *       follows (Harness.claim_loop; a loop adds its fetch-adds to the
 *       int tally.value once, as it ends);
 *   ("idle", tasks, ...): a stealing rank's idle pass, its attempts
 *       chained one after another (Harness.idle_pass; see "the idle pass"
 *       below).
 *
 * tasks = (chain, bounds, costs, rates) is the run's task table: task t
 * is steps[bounds[t]:bounds[t + 1]] of `chain`, and its kernel lasts
 * costs[t] / rates[src] -- int64, float64 and float64 arrays (sequence is
 * int64 too) whose buffers the op holds while it lives. The tuple is
 * read once, when the op is made; a claim slot rebound since is called. */

enum { CLAIM_LIST, CLAIM_DRAIN, CLAIM_COUNTER, CLAIM_IDLE };

/* numpy/random/bitgen.h's bitgen_t: what a BitGenerator's `capsule`
 * (named "BitGenerator") points to, a public NumPy ABI since 1.17. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} BitGen;

enum { VICTIM_RANDOM, VICTIM_RING, VICTIM_HIERARCHICAL };
enum { STEAL_HALF, STEAL_ONE, STEAL_HALF_COST };
/* Where an idle pass is: about to attempt, its head chain walked (the
 * decision next), or the attempt's rest walked. */
enum { IDLE_ATTEMPT, IDLE_DECIDE, IDLE_DONE };

/* The idle pass's spec items (borrowed from it) and the loop's state. */
typedef struct {
    PyObject *heads, *lockword, *meta, *category, *descriptors, *make, *failed;
    PyObject *queues, *locks, *dirty, *staging, *peers, *tags, *messages;
    BitGen *bitgen;
    Py_ssize_t rank, n_ranks, victim;
    int kind, policy, stage;
    long long park_after, scan, failures, k;
    double min_backoff, max_backoff, backoff;
} Idle;

struct Claims {
    int kind;
    PyObject *spec; /* owned; the objects below are its items */
    PyObject *chain, *items, *loop, *cell, *tally;
    /* bounds, costs, rates, and a counter's sequence or an idle pass's
     * steal tally */
    Py_buffer buf[4];
    int nbuf;
    Py_ssize_t n_tasks, n_ranks;
    Idle idle;
};

static void
claims_free(Claims *c)
{
    if (c == NULL)
        return;
    k_release(c->buf, c->nbuf);
    Py_XDECREF(c->spec);
    PyMem_Free(c);
}

/* Generator.integers(0, rng + 1) for rng < 2**32, as NumPy draws it:
 * random_bounded_uint64_fill for one value, whose 32-bit branch is
 * buffered_bounded_lemire_uint32 (Lemire's multiply and reject). rng == 0
 * draws nothing. */
static uint64_t
bounded_draw(BitGen *bg, uint32_t rng)
{
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFUL)
        return bg->next_uint32(bg->state);
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFUL);
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)(m & 0xFFFFFFFFUL);
        }
    }
    return m >> 32;
}

/* WorkStealing._choose_victim(ctx, rng, peers, scan) for `rank` of
 * `n_ranks` (>= 2): the ring's next rank, a node peer on two scans of
 * three for "hierarchical" (a tuple of ints), else a uniform other rank.
 * The victim, or -1 with a ValueError for a peer out of range. */
static Py_ssize_t
pick_victim(BitGen *bg, int kind, Py_ssize_t rank, Py_ssize_t n_ranks, PyObject *peers,
            long long scan)
{
    if (kind == VICTIM_RING)
        return (rank + 1 + (Py_ssize_t)(scan % (n_ranks - 1))) % n_ranks;
    Py_ssize_t n_peers = PyTuple_GET_SIZE(peers);
    if (kind == VICTIM_HIERARCHICAL && n_peers > 0 && scan % 3 < 2) {
        PyObject *peer = PyTuple_GET_ITEM(peers, bounded_draw(bg, (uint32_t)(n_peers - 1)));
        Py_ssize_t v = PyLong_CheckExact(peer) ? PyLong_AsSsize_t(peer) : -1;
        if (v < 0 || v >= n_ranks) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "a node peer %R is no rank of %zd", peer, n_ranks);
            return -1;
        }
        return v;
    }
    Py_ssize_t v = (Py_ssize_t)bounded_draw(bg, (uint32_t)(n_ranks - 2));
    return v < rank ? v : v + 1;
}

/* The victim policy named `victim` into *kind, the Generator's bitgen_t
 * (not needed for the ring) into *bg, with the draw's ranges checked:
 * 0, or -1 with a TypeError or ValueError. */
static int
victim_policy(const char *victim, PyObject *bit_generator, Py_ssize_t n_ranks,
              PyObject *peers, int *kind, BitGen **bg)
{
    static const char *names[3] = {"random", "ring", "hierarchical"};
    *kind = -1;
    for (int i = 0; i < 3; i++)
        if (strcmp(victim, names[i]) == 0)
            *kind = i;
    if (*kind < 0 || n_ranks < 2 || (uint64_t)(n_ranks - 2) > UINT32_MAX ||
        (uint64_t)PyTuple_GET_SIZE(peers) > (uint64_t)UINT32_MAX + 1) {
        PyErr_Format(PyExc_ValueError, "no victim draw %s among %zd ranks and %zd peers",
                     victim, n_ranks, PyTuple_GET_SIZE(peers));
        return -1;
    }
    *bg = NULL;
    if (*kind == VICTIM_RING)
        return 0;
    PyObject *capsule = PyObject_GetAttr(bit_generator, s_capsule);
    if (capsule == NULL)
        return -1;
    /* The pointer is into the BitGenerator, which the caller holds. */
    *bg = (BitGen *)PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    return *bg == NULL ? -1 : 0;
}

/* An idle pass's spec into `s` (see "the idle pass" below), its tally
 * array into *tally: 0, or -1 with a TypeError or ValueError. */
static int
idle_parse(PyObject *spec, Idle *s, PyObject **tally)
{
    static const char *policies[3] = {"half", "one", "half_cost"};
    PyObject *name, *tasks, *shared, *bit_generator;
    const char *victim, *steal;
    if (!PyArg_ParseTuple(spec, "UO!O!O!O!O!nOOsO!sOO!LdddLL:idle claim source", &name,
                          &PyTuple_Type, &tasks, &PyTuple_Type, &shared, &PyList_Type,
                          &s->queues, &PyList_Type, &s->locks, &PyList_Type, &s->dirty,
                          &s->rank, &s->staging, &bit_generator, &victim, &PyTuple_Type,
                          &s->peers, &steal, &s->tags, g_deque_type, &s->messages,
                          &s->park_after, &s->min_backoff, &s->max_backoff, &s->backoff,
                          &s->scan, &s->failures) ||
        !PyArg_ParseTuple(shared, "O!OOUO!OOO:idle claim source", &PyList_Type, &s->heads,
                          &s->lockword, &s->meta, &s->category, &PyDict_Type,
                          &s->descriptors, &s->make, &s->failed, tally))
        return -1;
    s->n_ranks = PyList_GET_SIZE(s->queues);
    s->policy = -1;
    for (int i = 0; i < 3; i++)
        if (strcmp(steal, policies[i]) == 0)
            s->policy = i;
    PyObject *chain = PyTuple_GET_ITEM(tasks, 0);
    if (s->policy < 0 || PyList_GET_SIZE(s->locks) != s->n_ranks ||
        PyList_GET_SIZE(s->dirty) != s->n_ranks || PyList_GET_SIZE(s->heads) != s->n_ranks ||
        s->rank < 0 || s->rank >= s->n_ranks ||
        !(s->staging == Py_None || Py_IS_TYPE(s->staging, g_deque_type)) ||
        !(s->tags == Py_None || PyTuple_CheckExact(s->tags)) || !PyTuple_CheckExact(chain) ||
        PyTuple_GET_SIZE(chain) != 3 || s->park_after < 0 || s->scan < 0 || s->failures < 0) {
        PyErr_Format(PyExc_ValueError, "malformed idle claim source: %R", spec);
        return -1;
    }
    return victim_policy(victim, bit_generator, s->n_ranks, s->peers, &s->kind, &s->bitgen);
}

/* The claim source `spec` describes, its buffers acquired; NULL with a
 * TypeError or ValueError naming what is malformed. */
static Claims *
claims_new(PyObject *spec)
{
    static const KSpec table[5] = {
        {"bounds", "lq", 8, 0},
        {"costs", "d", 8, 0},
        {"rates", "d", 8, 0},
        {"sequence", "lq", 8, 0},
        {"tally", "lq", 8, 1},
    };
    static const char *kinds[4] = {"list", "drain", "counter", "idle"};
    static const Py_ssize_t sizes[4] = {3, 4, 6, 20};
    int kind = -1;
    if (PyTuple_CheckExact(spec) && PyTuple_GET_SIZE(spec) > 0 &&
        PyUnicode_Check(PyTuple_GET_ITEM(spec, 0)))
        for (int i = 0; i < 4; i++)
            if (PyUnicode_CompareWithASCIIString(PyTuple_GET_ITEM(spec, 0), kinds[i]) == 0)
                kind = i;
    PyObject *tasks = NULL, *items = NULL, *loop = NULL;
    if (kind >= 0 && PyTuple_GET_SIZE(spec) == sizes[kind]) {
        tasks = PyTuple_GET_ITEM(spec, 1);
        items = kind == CLAIM_COUNTER || kind == CLAIM_IDLE ? NULL : PyTuple_GET_ITEM(spec, 2);
        loop = kind == CLAIM_LIST || kind == CLAIM_IDLE
                   ? NULL
                   : PyTuple_GET_ITEM(spec, kind == CLAIM_DRAIN ? 3 : 2);
    }
    if (tasks == NULL || !PyTuple_CheckExact(tasks) || PyTuple_GET_SIZE(tasks) != 4 ||
        !PyTuple_CheckExact(PyTuple_GET_ITEM(tasks, 0)) ||
        (kind == CLAIM_LIST && !PyList_CheckExact(items)) ||
        (kind == CLAIM_DRAIN && !Py_IS_TYPE(items, g_deque_type)) ||
        (loop != NULL && !PyTuple_CheckExact(loop))) {
        PyErr_Format(PyExc_TypeError, "malformed claim source: %R", spec);
        return NULL;
    }
    Claims *c = (Claims *)PyMem_Calloc(1, sizeof(Claims));
    if (c == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    PyObject *arrays[4] = {PyTuple_GET_ITEM(tasks, 1), PyTuple_GET_ITEM(tasks, 2),
                           PyTuple_GET_ITEM(tasks, 3),
                           kind == CLAIM_COUNTER ? PyTuple_GET_ITEM(spec, 4) : NULL};
    if (kind == CLAIM_IDLE && idle_parse(spec, &c->idle, &arrays[3]) < 0) {
        PyMem_Free(c);
        return NULL;
    }
    int nbuf = kind == CLAIM_COUNTER || kind == CLAIM_IDLE ? 4 : 3;
    if (k_buffers("claim source", table, arrays, c->buf, 3) < 0) {
        PyMem_Free(c);
        return NULL;
    }
    if (nbuf == 4 && k_buffers("claim source", &table[kind == CLAIM_IDLE ? 4 : 3], &arrays[3],
                               &c->buf[3], 1) < 0) {
        k_release(c->buf, 3);
        PyMem_Free(c);
        return NULL;
    }
    c->nbuf = nbuf;
    c->n_tasks = c->buf[1].len / 8;
    c->n_ranks = c->buf[2].len / 8;
    if (c->buf[0].len / 8 != c->n_tasks + 1 ||
        (kind == CLAIM_COUNTER && c->buf[3].len / 8 != c->n_tasks) ||
        (kind == CLAIM_IDLE && c->buf[3].len / 8 != 4)) {
        PyErr_SetString(PyExc_ValueError, "claim source: bounds must hold one entry more "
                                          "than costs, a sequence as many, and a tally "
                                          "four");
        claims_free(c);
        return NULL;
    }
    c->kind = kind;
    c->spec = Py_NewRef(spec);
    c->chain = PyTuple_GET_ITEM(tasks, 0);
    c->items = items;
    c->loop = loop;
    if (kind == CLAIM_COUNTER) {
        c->cell = PyTuple_GET_ITEM(spec, 3);
        c->tally = PyTuple_GET_ITEM(spec, 5);
    }
    return c;
}

/* Make task `tid` (a reference this takes) the op's slice of the task
 * chain, its kernel costs[tid] / rates[src]. */
static int
claims_arm(FusedOp *op, Claims *c, PyObject *tid)
{
    PyObject *srcobj = OP_GET(op, src);
    long long t = PyLong_CheckExact(tid) ? PyLong_AsLongLong(tid) : -1;
    Py_ssize_t src = srcobj != NULL && PyLong_CheckExact(srcobj) ? PyLong_AsSsize_t(srcobj) : -1;
    if (srcobj == NULL || PyErr_Occurred() || t < 0 || t >= c->n_tasks || src < 0 ||
        src >= c->n_ranks) {
        if (srcobj != NULL) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "claimed task %R of rank %R is outside the task table",
                         tid, srcobj);
        }
        Py_DECREF(tid);
        return -1;
    }
    const int64_t *bounds = (const int64_t *)c->buf[0].buf;
    Py_XSETREF(op->chain, Py_NewRef(c->chain));
    op->pos = bounds[t];
    op->end = bounds[t + 1];
    op->duration = ((const double *)c->buf[1].buf)[t] / ((const double *)c->buf[2].buf)[src];
    Py_XSETREF(op->tid, tid);
    op->count++;
    return 1;
}

/* The source is spent: a drain's result becomes how many tasks ran, a
 * counter loop adds its fetch-adds (one per task, and the one that ended
 * it) to the tally. Returns 0, or -1 with an exception. */
static int
claims_spent(FusedOp *op)
{
    Claims *c = op->claims;
    if (c->kind == CLAIM_DRAIN) {
        PyObject *ran = PyLong_FromLongLong(op->count);
        if (ran == NULL)
            return -1;
        Py_XSETREF(op->result, ran);
    }
    else if (c->kind == CLAIM_COUNTER) {
        long long total;
        if (get_ll(c->tally, s_value, &total) < 0 ||
            set_ll(c->tally, s_value, total + op->count + 1) < 0)
            return -1;
    }
    return 0;
}

/* ---- the idle pass ----
 *
 *   ("idle", tasks, shared, queues, locks, dirty, rank, staging,
 *    bit_generator, victim, peers, steal, tags, messages, park_after,
 *    min_backoff, max_backoff, backoff, scan, failures)
 *
 * is WorkStealing._steal_loop's idle pass for `rank`, whose queue is
 * empty (Harness.idle_pass): choose a victim, attempt a steal, back off,
 * poll, again, until an attempt took tasks, a message matching one of
 * `tags` (None: any) waits in the rank's mailbox deque `messages`, or
 * `park_after` failed attempts in a row (0: never) call for a park. Then
 * the op returns the loop's (backoff, scan, failures).
 *
 * The victim is WorkStealing._choose_victim's (`victim` is "random",
 * "ring" or "hierarchical", `peers` the rank's node peers), drawn on the
 * rank Generator's own bitgen_t (`bit_generator`), bit for bit. An
 * attempt on victim v is the chain heads[v] -- its lock word read (the
 * CAS), KEEP_LOCK on locks[v], its metadata read -- which the pass builds
 * the first time from the `lockword` and `meta` programs. Its decision
 * reads queues[v]: k tasks by the `steal` policy ("half", "one", or
 * "half_cost", which sums `costs` in queue order as
 * WorkStealing._steal_count does), counted in the int64 `tally`
 * (attempts, successes, tasks stolen, failures), which Harness folds once
 * per run. For k > 0 the thief is marked in `dirty` and the rest is the
 * descriptor read (descriptors[k], which make_descriptors(k) makes the
 * first time), MOVE_TASKS, the lock word written back and, with a
 * `staging` deque, LAND_TASKS after it; op.steal is (locks[v], queues[v],
 * [staging,] queues[rank]). For none it is the `failed` chain: MOVE_TASKS
 * releasing the lock, then the backoff as a timed IDLE step of `backoff`,
 * which doubles after it up to `max_backoff`. shared = (heads, lockword,
 * meta, category, descriptors, make_descriptors, failed, tally) is the
 * run's, the same for every rank. Every seq is taken where the
 * generators take theirs: the resumes the pass saves between attempts
 * are calls, not events. */

/* The loop's state is the op's result, and the pass is over. */
static int
idle_spent(FusedOp *op, Idle *s)
{
    PyObject *state = Py_BuildValue("(dLL)", s->backoff, s->scan, s->failures);
    if (state == NULL)
        return -1;
    Py_XSETREF(op->result, state);
    return 0;
}

/* Whether a message matching the pass's tags waits in the mailbox: 1, 0,
 * or -1 with an exception (the tags are the model's own, compared with
 * `==` as _Mailbox.take does). */
static int
idle_polled(Idle *s)
{
    if (Py_SIZE(s->messages) == 0 || s->tags == Py_None)
        return Py_SIZE(s->messages) > 0;
    PyObject *it = PyObject_GetIter(s->messages), *message;
    if (it == NULL)
        return -1;
    int found = 0;
    while (!found && (message = PyIter_Next(it)) != NULL) {
        PyObject *tag = get_attr(message, s_tag);
        Py_DECREF(message);
        if (tag == NULL) {
            found = -1;
            break;
        }
        for (Py_ssize_t i = 0; !found && i < PyTuple_GET_SIZE(s->tags); i++)
            found = PyObject_RichCompareBool(tag, PyTuple_GET_ITEM(s->tags, i), Py_EQ);
        Py_DECREF(tag);
    }
    Py_DECREF(it);
    return found < 0 || PyErr_Occurred() ? -1 : found;
}

/* Draw the next victim and arm the attempt's head chain on it. */
static int
idle_attempt(FusedOp *op, Claims *c)
{
    Idle *s = &c->idle;
    Py_ssize_t v = pick_victim(s->bitgen, s->kind, s->rank, s->n_ranks, s->peers, s->scan);
    if (v < 0)
        return -1;
    s->scan++;
    PyObject *head = PyList_GET_ITEM(s->heads, v);
    if (head == Py_None) { /* (lock word, KEEP_LOCK, metadata) on v */
        PyObject *steps = Py_BuildValue("((nOO)i(nOO))", v, s->lockword, s->category,
                                        0, v, s->meta, s->category);
        head = steps == NULL ? NULL
                             : PyTuple_Pack(3, steps, PyTuple_GET_ITEM(c->chain, 1),
                                            PyTuple_GET_ITEM(c->chain, 2));
        Py_XDECREF(steps);
        if (head == NULL)
            return -1;
        PyList_SetItem(s->heads, v, head); /* steals head; v is in range */
    }
    PyObject *lock = PyList_GET_ITEM(s->locks, v), *victim = PyList_GET_ITEM(s->queues, v);
    PyObject *thief = PyList_GET_ITEM(s->queues, s->rank);
    PyObject *steal = s->staging == Py_None ? PyTuple_Pack(3, lock, victim, thief)
                                            : PyTuple_Pack(4, lock, victim, s->staging, thief);
    if (steal == NULL)
        return -1;
    Py_XSETREF(op->steal, steal);
    Py_XSETREF(op->chain, Py_NewRef(head));
    op->pos = 0;
    op->end = 3;
    s->victim = v;
    s->stage = IDLE_DECIDE;
    ((int64_t *)c->buf[3].buf)[0]++;
    return 1;
}

/* How many tail tasks of the victim's `queue` (of `n` > 0) half_cost
 * takes: tail tasks until half the queue's modeled cost, summed in queue
 * order, has moved. -1 with an exception for a task outside the table. */
static long long
half_cost(Claims *c, PyObject *queue, Py_ssize_t n)
{
    const double *costs = (const double *)c->buf[1].buf;
    int64_t *tids = PyMem_Malloc((size_t)n * sizeof(int64_t));
    if (tids == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    PyObject *it = PyObject_GetIter(queue), *task;
    if (it == NULL) {
        PyMem_Free(tids);
        return -1;
    }
    double total = 0.0, taken = 0.0;
    Py_ssize_t i = 0;
    while (i < n && (task = PyIter_Next(it)) != NULL) {
        long long t = PyLong_CheckExact(task) ? PyLong_AsLongLong(task) : -1;
        Py_DECREF(task);
        if (t < 0 || t >= c->n_tasks) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "a queued task %lld is outside the task table", t);
            break;
        }
        tids[i++] = t;
        total += costs[t];
    }
    Py_DECREF(it);
    long long k = -1;
    if (i == n && !PyErr_Occurred()) {
        for (k = 0; k < n; k++) {
            if (k > 0 && taken >= total / 2.0)
                break;
            taken += costs[tids[n - 1 - k]];
        }
    }
    PyMem_Free(tids);
    return k;
}

/* The attempt holds the victim's lock and has read its metadata: decide
 * (see "the idle pass") and load the attempt's rest. */
static int
idle_decide(RunCtx *ctx, FusedOp *op, Claims *c)
{
    Idle *s = &c->idle;
    int64_t *tally = (int64_t *)c->buf[3].buf;
    PyObject *queue = PyList_GET_ITEM(s->queues, s->victim);
    if (!Py_IS_TYPE(queue, g_deque_type)) {
        PyErr_Format(PyExc_TypeError, "a steal's victim queue %R is not a deque", queue);
        return -1;
    }
    Py_ssize_t n = Py_SIZE(queue);
    long long k = n == 0 ? 0
                  : s->policy == STEAL_HALF ? (n + 1) / 2
                  : s->policy == STEAL_ONE  ? 1
                                            : half_cost(c, queue, n);
    PyObject *result = k < 0 ? NULL : PyLong_FromLongLong(k);
    if (result == NULL)
        return -1;
    Py_XSETREF(op->result, result);
    s->k = k;
    s->stage = IDLE_DONE;
    op->pos = 0;
    if (k == 0) {
        tally[3]++;
        Py_XSETREF(op->chain, Py_NewRef(s->failed));
        op->end = 2;
        op->duration = s->backoff;
        return 1;
    }
    tally[1]++;
    tally[2] += k;
    if (s->rank >= PyList_GET_SIZE(s->dirty)) {
        PyErr_SetString(PyExc_ValueError, "a thief outside the ring's dirty bits");
        return -1;
    }
    PyList_SetItem(s->dirty, s->rank, Py_NewRef(Py_True));
    /* the unlock write is the head's lock word read again */
    PyObject *head = PyList_GET_ITEM(s->heads, s->victim);
    if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 3 ||
        !PyTuple_CheckExact(PyTuple_GET_ITEM(head, 0)) ||
        PyTuple_GET_SIZE(PyTuple_GET_ITEM(head, 0)) != 3) {
        PyErr_Format(PyExc_TypeError, "malformed steal head %R", head);
        return -1;
    }
    /* held: make_descriptors may rebind heads[victim] */
    PyObject *word = Py_NewRef(PyTuple_GET_ITEM(PyTuple_GET_ITEM(head, 0), 0));
    PyObject *key = PyLong_FromLongLong(k);
    PyObject *programs = key == NULL ? NULL : PyDict_GetItemWithError(s->descriptors, key);
    if (programs != NULL)
        Py_INCREF(programs);
    else if (key != NULL && !PyErr_Occurred()) {
        programs = call_out(ctx, s->make, NULL, &key, 1);
        if (programs != NULL && PyDict_SetItem(s->descriptors, key, programs) < 0)
            Py_CLEAR(programs);
    }
    Py_XDECREF(key);
    PyObject *steps = programs == NULL ? NULL
                      : s->staging == Py_None
                          ? Py_BuildValue("((nOO)iO)", s->victim, programs, s->category, 1, word)
                          : Py_BuildValue("((nOO)iOi)", s->victim, programs, s->category, 1,
                                          word, 2);
    Py_XDECREF(programs);
    Py_DECREF(word);
    PyObject *chain = steps == NULL ? NULL
                                    : PyTuple_Pack(3, steps, PyTuple_GET_ITEM(c->chain, 1),
                                                   PyTuple_GET_ITEM(c->chain, 2));
    Py_XDECREF(steps);
    if (chain == NULL)
        return -1;
    Py_XSETREF(op->chain, chain);
    op->end = s->staging == Py_None ? 3 : 4;
    return 1;
}

/* The idle pass's next slice: the first attempt, the decision after an
 * attempt's head, or, after its rest, the next attempt unless the pass is
 * over. */
static int
idle_next(RunCtx *ctx, FusedOp *op, Claims *c)
{
    Idle *s = &c->idle;
    if (s->stage == IDLE_DECIDE)
        return idle_decide(ctx, op, c);
    if (s->stage == IDLE_DONE) {
        if (s->k > 0) { /* the queue holds tasks now */
            s->backoff = s->min_backoff;
            s->failures = 0;
            return idle_spent(op, s);
        }
        s->failures++;
        double doubled = s->backoff * 2.0;
        s->backoff = s->max_backoff < doubled ? s->max_backoff : doubled;
        int polled = idle_polled(s);
        if (polled < 0)
            return -1;
        if (polled || (s->park_after > 0 && s->failures >= s->park_after))
            return idle_spent(op, s);
    }
    return idle_attempt(op, c);
}

/* The native claim source's next slice: 1 with it armed, 0 when the
 * source is spent, -1 with an exception. */
static int
claims_next(RunCtx *ctx, FusedOp *op)
{
    Claims *c = op->claims;
    PyObject *tid;
    if (c->kind == CLAIM_IDLE)
        return idle_next(ctx, op, c);
    if (c->kind == CLAIM_LIST) {
        if (op->count >= PyList_GET_SIZE(c->items))
            return claims_spent(op);
        tid = Py_NewRef(PyList_GET_ITEM(c->items, op->count));
    }
    else if (op->chain != c->loop) { /* a task ran: the pop or fetch-add again */
        if (c->kind == CLAIM_DRAIN && Py_SIZE(c->items) == 0)
            return claims_spent(op);
        Py_XSETREF(op->chain, Py_NewRef(c->loop));
        op->pos = 0;
        op->end = 1;
        if (c->kind == CLAIM_COUNTER)
            Py_XSETREF(op->counter, Py_NewRef(c->cell));
        return 1;
    }
    else if (c->kind == CLAIM_DRAIN) { /* the pop step ran: the head, if a thief left one */
        if (Py_SIZE(c->items) == 0)
            return claims_spent(op);
        tid = call_c(NULL, s_popleft, &c->items, 1);
        if (tid == NULL)
            return -1;
    }
    else { /* the fetch-add ran: the task at the position it read */
        PyObject *read = OP_GET(op, result);
        if (read == NULL)
            return -1;
        long long first = PyLong_CheckExact(read) ? PyLong_AsLongLong(read) : -1;
        if (first < 0) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "a claim read position %R", read);
            return -1;
        }
        if (first >= c->n_tasks)
            return claims_spent(op);
        tid = PyLong_FromLongLong(((const int64_t *)c->buf[3].buf)[first]);
        if (tid == NULL)
            return -1;
        Py_XSETREF(op->counter, Py_NewRef(Py_None));
    }
    return claims_arm(op, c, tid);
}

static int fused_load_step(RunCtx *ctx, FusedOp *op);

/* Move the k tail tasks of deque `victim` to the tail of deque `thief`,
 * in their order: 0, or -1 with an exception. */
static int
move_tasks(PyObject *victim, PyObject *thief, Py_ssize_t k)
{
    PyObject *stolen = PyList_New(k);
    for (Py_ssize_t i = k - 1; i >= 0 && stolen != NULL; i--) {
        PyObject *task = call_c(NULL, s_pop, &victim, 1);
        if (task == NULL)
            Py_CLEAR(stolen);
        else
            PyList_SET_ITEM(stolen, i, task);
    }
    if (stolen == NULL)
        return -1;
    PyObject *args[2] = {thief, stolen};
    PyObject *r = call_c(NULL, s_extend, args, 2);
    Py_DECREF(stolen);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* A steal's lock step on op.steal = (lock, victim queue, thief queue)
 * or (lock, victim queue, staging queue, thief queue), the queues exact
 * deques: KEEP_LOCK (0) takes the lock and keeps it, the next step armed
 * at the grant; MOVE_TASKS (1) moves the op's `result` tasks from the
 * victim queue's tail to steal[2]'s, releases the lock, and arms the next
 * step; LAND_TASKS (2) moves the staged tasks on to the thief queue's
 * tail, in their order, and arms the next step. */
static int
fused_lock_step(RunCtx *ctx, FusedOp *op, PyObject *step)
{
    PyObject *steal = OP_GET(op, steal);
    if (steal == NULL)
        return -1;
    long code = PyLong_AsLong(step);
    if (code == -1 && PyErr_Occurred())
        PyErr_Clear();
    Py_ssize_t n = PyTuple_CheckExact(steal) ? PyTuple_GET_SIZE(steal) : 0;
    int deques = n >= 3;
    for (Py_ssize_t i = 1; i < n && deques; i++)
        deques = Py_IS_TYPE(PyTuple_GET_ITEM(steal, i), g_deque_type);
    if (!deques || n > 4 || code < 0 || code > 2 || (code == 2 && n != 4) ||
        op->kept != (code == 1)) {
        PyErr_Format(PyExc_TypeError, "malformed fused op step %lld: %R for steal %R",
                     op->pos - 1, step, steal);
        return -1;
    }
    Py_INCREF(steal); /* held: Python a release or a grant runs may rebind op.steal */
    PyObject *lock = PyTuple_GET_ITEM(steal, 0), *victim = PyTuple_GET_ITEM(steal, 1);
    int rc = -1;
    if (code == 0)
        rc = fused_acquire(ctx, op, lock, 6);
    else if (code == 2) {
        PyObject *staged = PyTuple_GET_ITEM(steal, 2);
        rc = move_tasks(staged, PyTuple_GET_ITEM(steal, 3), Py_SIZE(staged));
        if (rc == 0)
            rc = fused_load_step(ctx, op);
    } else {
        PyObject *result = OP_GET(op, result);
        Py_ssize_t k = result != NULL && PyLong_CheckExact(result) ? PyLong_AsSsize_t(result) : -1;
        if (k >= 0 && k <= Py_SIZE(victim))
            rc = k == 0 ? 0 : move_tasks(victim, PyTuple_GET_ITEM(steal, 2), k);
        else if (result != NULL) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "a steal takes %R tasks from a queue of %zd",
                         result, Py_SIZE(victim));
        }
        if (rc == 0) {
            op->kept = 0;
            rc = resource_release(ctx, lock);
        }
        if (rc == 0)
            rc = fused_load_step(ctx, op);
    }
    Py_DECREF(steal);
    return rc;
}

/* Arm the chain's next step, or the first of the slice the op's claim
 * loads next, or finish. A chain is what Harness builds -- exact tuples,
 * int ranks, float delays, every index in range; anything else raises
 * TypeError naming the step before a single store. */
static int
fused_load_step(RunCtx *ctx, FusedOp *op)
{
    while (op->pos >= op->end) {
        PyObject *claim = OP_GET(op, claim);
        if (claim == NULL)
            return -1;
        int more = 0;
        if (op->claims != NULL && claim == op->claims->spec)
            more = claims_next(ctx, op);
        else if (claim != Py_None) {
            PyObject *arg = (PyObject *)op;
            Py_INCREF(claim);
            PyObject *r = call_out(ctx, claim, NULL, &arg, 1);
            Py_DECREF(claim);
            more = r == NULL ? -1 : PyObject_IsTrue(r);
            Py_XDECREF(r);
        }
        if (more < 0)
            return -1;
        if (!more)
            return fused_finish(ctx, op);
    }
    long long pos = op->pos;
    PyObject *chain = OP_GET(op, chain);
    PyObject *srcobj = chain ? OP_GET(op, src) : NULL;
    PyObject *nowobj = srcobj ? now_obj(ctx) : NULL; /* borrowed, all three */
    if (nowobj == NULL)
        return -1;
    PyObject *steps, *nics, *ids, *step = NULL;
    if (!PyTuple_CheckExact(chain) || PyTuple_GET_SIZE(chain) != 3 ||
        !PyTuple_CheckExact(steps = PyTuple_GET_ITEM(chain, 0)) || pos < 0 ||
        pos >= PyTuple_GET_SIZE(steps))
        goto malformed;
    nics = PyTuple_GET_ITEM(chain, 1);
    ids = PyTuple_GET_ITEM(chain, 2);
    step = PyTuple_GET_ITEM(steps, pos);
    if (step == Py_None || PyUnicode_CheckExact(step)) { /* the kernel, or a timed wait */
        op->pos = pos + 1;
        Py_XSETREF(op->start, Py_NewRef(nowobj));
        op->phase = 4;
        if (step != Py_None) { /* recorded under its category as it ends */
            Py_XSETREF(op->category, Py_NewRef(step));
            op->phase = 5;
        }
        ctx->timeout_allocs++; /* engine.timeout_allocs += 1 */
        return fused_dispatch(ctx, op, op->duration);
    }
    if (PyLong_CheckExact(step)) {
        op->pos = pos + 1;
        return fused_lock_step(ctx, op, step);
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
                return -1;
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
    op->pos = pos + 1;
    Py_XSETREF(op->start, Py_NewRef(lock ? Py_None : nowobj));
    Py_XSETREF(op->category, Py_NewRef(PyTuple_GET_ITEM(step, 2)));
    Py_XSETREF(op->post, Py_NewRef(post));
    Py_XSETREF(op->pre, Py_NewRef(pre));
    Py_XSETREF(op->hold, Py_NewRef(hold));
    Py_XSETREF(op->nic, Py_NewRef(nic));
    op->phase = 0;
    op->idx = 1;
    return lock ? fused_acquire(ctx, op, nic, 1)
                : fused_dispatch(ctx, op, PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(pre, 0)));
malformed:
    if (step == NULL)
        PyErr_Format(PyExc_TypeError, "fused op chain has no step %lld", pos);
    else
        PyErr_Format(PyExc_TypeError, "malformed fused op step %lld: %R", pos, step);
    return -1;
}

/* One operation ran: emit its trace record, then arm the next step (an
 * op without a chain has none and finishes). */
static int
fused_complete(RunCtx *ctx, FusedOp *op)
{
    PyObject *trace = OP_GET(op, trace);
    PyObject *src = trace ? OP_GET(op, src) : NULL;
    PyObject *cat = src ? OP_GET(op, category) : NULL;
    PyObject *start = cat ? OP_GET(op, start) : NULL;
    PyObject *nowobj = start ? now_obj(ctx) : NULL;
    if (nowobj == NULL || trace_record(ctx, trace, src, cat, NULL, start, nowobj) < 0)
        return -1;
    return fused_load_step(ctx, op);
}

/* The NIC grant arrived. fetch_add's read-modify-write happens here
 * (while the home NIC is held), a lock hold's interval and Timeout begin
 * here, then the held occupancy is scheduled. */
static int
fused_resume(RunCtx *ctx, FusedOp *op)
{
    if (op->phase == 6) { /* the lock a steal keeps: on to the next step */
        op->kept = 1;
        return fused_load_step(ctx, op);
    }
    PyObject *counter = OP_GET(op, counter);
    if (counter == NULL)
        return -1;
    if (counter != Py_None) {
        Py_INCREF(counter);
        PyObject *value = get_attr(counter, s_value);
        PyObject *amount = value ? OP_GET(op, amount) : NULL;
        PyObject *newval = amount ? PyNumber_InPlaceAdd(value, amount) : NULL;
        int rc = newval ? set_attr(counter, s_value, newval) : -1;
        Py_XDECREF(newval);
        Py_DECREF(counter);
        if (rc < 0) {
            Py_XDECREF(value);
            return -1;
        }
        Py_XSETREF(op->result, value);
    }
    PyObject *start = OP_GET(op, start);
    if (start == NULL)
        return -1;
    if (start == Py_None) {
        PyObject *nowobj = now_obj(ctx);
        if (nowobj == NULL)
            return -1;
        Py_SETREF(op->start, Py_NewRef(nowobj));
        ctx->timeout_allocs++; /* engine.timeout_allocs += 1 */
    }
    op->holding = 1;
    op->phase = 2;
    PyObject *holdobj = OP_GET(op, hold);
    double hold = holdobj ? PyFloat_AsDouble(holdobj) : -1.0;
    if (hold == -1.0 && (holdobj == NULL || PyErr_Occurred()))
        return -1;
    return fused_dispatch(ctx, op, hold);
}

/* op.pre or op.post, borrowed, if it is a tuple; else NULL with an
 * exception set. */
static PyObject *
fused_delays(FusedOp *op, PyObject *delays, const char *name)
{
    if (op_field(op, delays, name) == NULL)
        return NULL;
    if (!PyTuple_Check(delays)) {
        PyErr_SetString(PyExc_TypeError, "fused op delays must be tuples");
        return NULL;
    }
    return delays;
}

/* One step of the delay program: the op's `_advance` callback. */
static int
fused_advance(RunCtx *ctx, FusedOp *op)
{
    if (op->done)
        return 0; /* late wake-up raced with cancellation */
    if (op->engine != ctx->engine)
        return foreign_engine();
    if (op->phase == 0 || op->phase == 3) {
        /* the next pre-delay (or return-path delay), else the NIC (pre
         * only) or the end of the operation */
        PyObject *delays = op->phase == 0 ? fused_delays(op, op->pre, "pre")
                                          : fused_delays(op, op->post, "post");
        if (delays == NULL)
            return -1;
        if (op->idx < PyTuple_GET_SIZE(delays)) {
            double d = PyFloat_AsDouble(PyTuple_GET_ITEM(delays, op->idx));
            if (d == -1.0 && PyErr_Occurred())
                return -1;
            op->idx++;
            return fused_dispatch(ctx, op, d);
        }
        if (op->phase == 3)
            return fused_complete(ctx, op);
        PyObject *nic = OP_GET(op, nic);
        if (nic == NULL)
            return -1;
        if (nic == Py_None)
            return fused_complete(ctx, op);
        Py_INCREF(nic); /* its attributes may run Python that rebinds op.nic */
        int rc = fused_acquire(ctx, op, nic, 1);
        Py_DECREF(nic);
        return rc;
    }
    if (op->phase == 2) {
        /* hold expired: release first (the next waiter's grant takes
         * its seq here, as the generator's finally did), then the
         * return-path delays. */
        op->holding = 0;
        PyObject *nic = OP_GET(op, nic);
        if (nic == NULL)
            return -1;
        Py_INCREF(nic);
        int released = resource_release(ctx, nic);
        Py_DECREF(nic);
        PyObject *post = released < 0 ? NULL : fused_delays(op, op->post, "post");
        if (post == NULL)
            return -1;
        if (PyTuple_GET_SIZE(post) == 0)
            return fused_complete(ctx, op);
        double d = PyFloat_AsDouble(PyTuple_GET_ITEM(post, 0));
        if (d == -1.0 && PyErr_Occurred())
            return -1;
        op->phase = 3;
        op->idx = 1;
        return fused_dispatch(ctx, op, d);
    }
    if (op->phase == 5) /* a timed wait ended: its interval, then the next step */
        return fused_complete(ctx, op);
    /* phase 4, the kernel ran: record its interval where the generator
     * resumed from the kernel's Timeout, then the accumulates. */
    PyObject *tid = OP_GET(op, tid);
    PyObject *start = tid ? OP_GET(op, start) : NULL;
    PyObject *trace = start ? OP_GET(op, trace) : NULL;
    PyObject *src = trace ? OP_GET(op, src) : NULL;
    PyObject *nowobj = src ? now_obj(ctx) : NULL;
    if (nowobj == NULL || trace_record(ctx, trace, src, s_compute, tid, start, nowobj) < 0)
        return -1;
    return fused_load_step(ctx, op);
}

/* A process yielded the op: bind it to the process and dispatch the
 * first pre-delay, or arm the chain's first step. */
static int
fused_activate(RunCtx *ctx, FusedOp *op, PyObject *proc)
{
    PyObject *engine = get_attr(proc, s_engine);
    if (engine == NULL)
        return -1;
    Py_DECREF(engine); /* the process keeps it alive */
    if (engine != ctx->engine)
        return foreign_engine();
    Py_XSETREF(op->engine, Py_NewRef(engine));
    Py_XSETREF(op->proc, Py_NewRef(proc));
    PyObject *chain = OP_GET(op, chain);
    if (chain == NULL)
        return -1;
    if (chain != Py_None)
        return fused_load_step(ctx, op);
    PyObject *nowobj = now_obj(ctx);
    if (nowobj == NULL)
        return -1;
    Py_XSETREF(op->start, Py_NewRef(nowobj));
    op->phase = 0;
    op->idx = 1;
    PyObject *pre = OP_GET(op, pre);
    if (pre == NULL)
        return -1;
    if (!PyTuple_Check(pre) || PyTuple_GET_SIZE(pre) < 1) {
        PyErr_SetString(PyExc_TypeError, "fused op pre-delays must be a non-empty tuple");
        return -1;
    }
    double d = PyFloat_AsDouble(PyTuple_GET_ITEM(pre, 0));
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    return fused_dispatch(ctx, op, d);
}

/* Resource._deliver_grant(proc), compiled: the done-check plus dispatch
 * to the resume fast path (a process) or the op's grant (a fused network
 * op), without the Python frame. */
static int
deliver_grant_fast(RunCtx *ctx, PyObject *resource, PyObject *proc)
{
    if (IS_OP(proc)) {
        FusedOp *op = (FusedOp *)proc;
        if (op->done) /* cancelled between grant and wake-up: re-offer */
            return resource_release(ctx, resource);
        if (op->engine != ctx->engine)
            return foreign_engine();
        ctx->grants++; /* proc.engine.grant_resumes += 1 */
        return fused_resume(ctx, op);
    }
    PyObject *done = get_attr(proc, s_done);
    if (done == NULL)
        return -1;
    int is_done = PyObject_IsTrue(done);
    Py_DECREF(done);
    if (is_done < 0)
        return -1;
    if (is_done)
        return resource_release(ctx, resource);
    PyObject *engine = get_attr(proc, s_engine);
    if (engine == NULL)
        return -1;
    Py_DECREF(engine); /* the process keeps it alive; only compared */
    if (engine != ctx->engine)
        return foreign_engine();
    ctx->grants++; /* proc.engine.grant_resumes += 1 */
    return resume_fast(ctx, proc, Py_None);
}

/* ---- the FusedOp type ----
 *
 * What the Python side sees of an op: its fields as attributes, and the
 * iterator a caller drives with `yield from` -- `__next__` first yields
 * the op itself (the request the process hands the core), and once the
 * operation completes the delegating generator is resumed with the
 * result, which the op turns into StopIteration(result): no generator
 * frame. `close()` mirrors the generator's `finally`: a held NIC slot is
 * released, a queued op is skipped by Resource.release via `done`. Only
 * engines that drive fused ops build them (Network.op_type). */

static int
fusedop_init(FusedOp *op, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"trace", "src", "category", "pre", "nic", "hold",
                             "post", "counter", "amount", "chain", "pos", "end",
                             "duration", "tid", "claim", "steal", NULL};
    PyObject *trace, *src, *category = Py_None, *pre = NULL, *nic = Py_None;
    PyObject *hold = Py_None, *post = NULL, *counter = Py_None, *amount = NULL;
    PyObject *chain = Py_None, *tid = Py_None, *claim = Py_None, *steal = Py_None;
    long long pos = 0, end = 0;
    double duration = 0.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|OOOOOOOOLLdOOO:FusedOp", kwlist,
                                     &trace, &src, &category, &pre, &nic, &hold,
                                     &post, &counter, &amount, &chain, &pos, &end,
                                     &duration, &tid, &claim, &steal))
        return -1;
    Claims *claims = NULL; /* a native claim source, read once, here */
    if (PyTuple_Check(claim) && (claims = claims_new(claim)) == NULL)
        return -1;
    PyObject *empty = PyTuple_New(0), *zero = PyLong_FromLong(0);
    if (empty == NULL || zero == NULL) {
        Py_XDECREF(empty);
        Py_XDECREF(zero);
        claims_free(claims);
        return -1;
    }
    Py_XSETREF(op->trace, Py_NewRef(trace));
    Py_XSETREF(op->src, Py_NewRef(src));
    Py_XSETREF(op->category, Py_NewRef(category));
    Py_XSETREF(op->pre, Py_NewRef(pre ? pre : empty));
    Py_XSETREF(op->nic, Py_NewRef(nic));
    Py_XSETREF(op->hold, Py_NewRef(hold));
    Py_XSETREF(op->post, Py_NewRef(post ? post : empty));
    Py_XSETREF(op->counter, Py_NewRef(counter));
    Py_XSETREF(op->amount, Py_NewRef(amount ? amount : zero));
    Py_XSETREF(op->chain, Py_NewRef(chain));
    Py_XSETREF(op->tid, Py_NewRef(tid));
    Py_XSETREF(op->claim, Py_NewRef(claim));
    Py_XSETREF(op->steal, Py_NewRef(steal));
    Py_XSETREF(op->proc, Py_NewRef(Py_None));
    Py_XSETREF(op->result, Py_NewRef(Py_None));
    Py_DECREF(empty);
    Py_DECREF(zero);
    claims_free(op->claims);
    op->claims = claims;
    op->pos = pos;
    op->end = end;
    op->count = 0;
    op->duration = duration;
    op->holding = op->kept = op->done = 0;
    return 0;
}

static int
fusedop_traverse(FusedOp *op, visitproc visit, void *arg)
{
    Py_VISIT(op->trace);
    Py_VISIT(op->src);
    Py_VISIT(op->category);
    Py_VISIT(op->pre);
    Py_VISIT(op->nic);
    Py_VISIT(op->hold);
    Py_VISIT(op->post);
    Py_VISIT(op->counter);
    Py_VISIT(op->amount);
    Py_VISIT(op->chain);
    Py_VISIT(op->tid);
    Py_VISIT(op->claim);
    Py_VISIT(op->steal);
    if (op->claims != NULL)
        Py_VISIT(op->claims->spec);
    Py_VISIT(op->engine);
    Py_VISIT(op->proc);
    Py_VISIT(op->start);
    Py_VISIT(op->result);
    return 0;
}

static int
fusedop_clear(FusedOp *op)
{
    Py_CLEAR(op->trace);
    Py_CLEAR(op->src);
    Py_CLEAR(op->category);
    Py_CLEAR(op->pre);
    Py_CLEAR(op->nic);
    Py_CLEAR(op->hold);
    Py_CLEAR(op->post);
    Py_CLEAR(op->counter);
    Py_CLEAR(op->amount);
    Py_CLEAR(op->chain);
    Py_CLEAR(op->tid);
    Py_CLEAR(op->claim);
    Py_CLEAR(op->steal);
    Claims *claims = op->claims;
    op->claims = NULL;
    claims_free(claims);
    Py_CLEAR(op->engine);
    Py_CLEAR(op->proc);
    Py_CLEAR(op->start);
    Py_CLEAR(op->result);
    return 0;
}

static void
fusedop_dealloc(FusedOp *op)
{
    PyObject_GC_UnTrack(op);
    if (op->weakreflist != NULL)
        PyObject_ClearWeakRefs((PyObject *)op);
    fusedop_clear(op);
    Py_TYPE(op)->tp_free((PyObject *)op);
}

/* StopIteration(value), the operation's end as `yield from` sees it. */
static PyObject *
fusedop_stop(PyObject *value)
{
    PyObject *args = PyTuple_Pack(1, value);
    if (args != NULL) {
        PyErr_SetObject(PyExc_StopIteration, args);
        Py_DECREF(args);
    }
    return NULL;
}

static PyObject *
fusedop_iternext(FusedOp *op)
{
    if (op->proc == Py_None)
        return Py_NewRef(op); /* first advance: hand the request to the process */
    PyObject *result = OP_GET(op, result);
    return result == NULL ? NULL : fusedop_stop(result);
}

static PyObject *
fusedop_send(FusedOp *op, PyObject *value)
{
    if (op->proc != Py_None)
        return fusedop_stop(value);
    if (value != Py_None) {
        PyErr_SetString(PyExc_TypeError,
                        "can't send non-None value to a just-started operation");
        return NULL;
    }
    return Py_NewRef(op);
}

/* Abort mid-operation (process cancelled): release a held slot, then a
 * kept lock, as the generators' `finally` blocks do, innermost first.
 * Python calls this (a generator's close), so the core, if it is running,
 * has published its clock and counter already. */
static PyObject *
fusedop_close(FusedOp *op, PyObject *Py_UNUSED(ignored))
{
    if (op->done)
        Py_RETURN_NONE;
    op->done = 1;
    for (int lock = 0; lock < 2; lock++) { /* the held NIC, then the kept lock */
        char *held = lock ? &op->kept : &op->holding;
        if (!*held)
            continue;
        *held = 0;
        PyObject *slot = lock ? OP_GET(op, steal) : OP_GET(op, nic);
        if (slot == NULL)
            return NULL;
        if (lock) {
            if (!PyTuple_Check(slot) || PyTuple_GET_SIZE(slot) == 0) {
                PyErr_Format(PyExc_TypeError, "a steal's lock is steal[0], not in %R", slot);
                return NULL;
            }
            slot = PyTuple_GET_ITEM(slot, 0);
        }
        Py_INCREF(slot); /* its release may run Python that rebinds the op's fields */
        PyObject *r = PyObject_CallMethodNoArgs(slot, s_release);
        Py_DECREF(slot);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    Py_RETURN_NONE;
}

/* The callback a pending step stands for once it leaves the core (see
 * flush_events); only the core, which recognises it, may run it. */
static PyObject *
fusedop_advance(FusedOp *op, PyObject *const *args, Py_ssize_t nargs)
{
    PyErr_SetString(g_sim_error ? g_sim_error : PyExc_RuntimeError, "a fused network op is walked only by the "
                                 "compiled engine core; on any other engine "
                                 "the Network runs its generators");
    return NULL;
}

static PyMethodDef fusedop_methods[] = {
    {"send", (PyCFunction)fusedop_send, METH_O,
     "send(value): StopIteration(value) once walked."},
    {"close", (PyCFunction)fusedop_close, METH_NOARGS,
     "close(): abort the operation, releasing a held NIC slot."},
    {"_advance", (PyCFunction)(void (*)(void))fusedop_advance, METH_FASTCALL,
     "_advance(arg=None): one step of the walk; the core's callback."},
    {NULL, NULL, 0, NULL},
};

#define OP_MEMBER(name, type)                                                  \
    {#name, type, offsetof(FusedOp, name), 0, NULL}
static PyMemberDef fusedop_members[] = {
    OP_MEMBER(trace, T_OBJECT_EX),
    OP_MEMBER(src, T_OBJECT_EX),
    OP_MEMBER(category, T_OBJECT_EX),
    OP_MEMBER(pre, T_OBJECT_EX),
    OP_MEMBER(nic, T_OBJECT_EX),
    OP_MEMBER(hold, T_OBJECT_EX),
    OP_MEMBER(post, T_OBJECT_EX),
    OP_MEMBER(counter, T_OBJECT_EX),
    OP_MEMBER(amount, T_OBJECT_EX),
    OP_MEMBER(chain, T_OBJECT_EX),
    OP_MEMBER(pos, T_LONGLONG),
    OP_MEMBER(end, T_LONGLONG),
    OP_MEMBER(duration, T_DOUBLE),
    OP_MEMBER(tid, T_OBJECT_EX),
    OP_MEMBER(claim, T_OBJECT_EX),
    OP_MEMBER(steal, T_OBJECT_EX),
    OP_MEMBER(count, T_LONGLONG),
    OP_MEMBER(engine, T_OBJECT_EX),
    OP_MEMBER(proc, T_OBJECT_EX),
    OP_MEMBER(start, T_OBJECT_EX),
    OP_MEMBER(phase, T_INT),
    OP_MEMBER(idx, T_LONGLONG),
    OP_MEMBER(holding, T_BOOL),
    OP_MEMBER(kept, T_BOOL),
    OP_MEMBER(done, T_BOOL),
    OP_MEMBER(result, T_OBJECT_EX),
    {NULL, 0, 0, 0, NULL},
};
#undef OP_MEMBER

static PyTypeObject FusedOpType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simulate._engine_core.FusedOp",
    .tp_doc = "FusedOp(trace, src, category=None, pre=(), nic=None, hold=None, "
              "post=(), counter=None, amount=0, chain=None, pos=0, end=0, "
              "duration=0.0, tid=None, claim=None, steal=None): traced network "
              "operations -- one, a whole task's chain, a claim loop of tasks, "
              "or a stealing rank's idle pass -- as a single request the compiled "
              "core walks.",
    .tp_basicsize = sizeof(FusedOp),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)fusedop_init,
    .tp_dealloc = (destructor)fusedop_dealloc,
    .tp_traverse = (traverseproc)fusedop_traverse,
    .tp_clear = (inquiry)fusedop_clear,
    .tp_weaklistoffset = offsetof(FusedOp, weakreflist),
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)fusedop_iternext,
    .tp_methods = fusedop_methods,
    .tp_members = fusedop_members,
};

/* Call a dispatched callback. `arg == NULL` means the heap convention
 * (no-argument call); otherwise the run-queue convention cb(arg). Bound
 * Process.resume / Resource._deliver_grant / FusedOp._advance methods
 * short-circuit into the compiled fast paths. */
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
    }
    else if (PyCFunction_Check(cb) &&
             PyCFunction_GET_FUNCTION(cb) == (PyCFunction)(void (*)(void))fusedop_advance &&
             IS_OP(PyCFunction_GET_SELF(cb)))
        return fused_advance(ctx, (FusedOp *)PyCFunction_GET_SELF(cb));
    return call_out_void(ctx, cb, NULL, &arg, arg != NULL ? 1 : 0);
}

/* Fire one C-held event: the caller's references to obj and arg are
 * released here. */
static int
fire(RunCtx *ctx, int kind, PyObject *obj, PyObject *arg)
{
    int rc = kind == EV_RESUME  ? resume_fast(ctx, obj, Py_None)
             : kind == EV_FUSED ? fused_advance(ctx, (FusedOp *)obj)
                                : deliver_grant_fast(ctx, obj, arg);
    Py_DECREF(obj);
    Py_XDECREF(arg);
    return rc;
}

/* The bound method a C-held event stands for: proc._resume,
 * op._advance or resource._deliver_grant (a new reference). */
static PyObject *
event_callback(int kind, PyObject *obj)
{
    if (kind == EV_FUSED)
        return PyObject_GetAttr(obj, s_advance_name);
    return PyMethod_New(kind == EV_RESUME ? g_resume_func : g_deliver_func, obj);
}

/* Flush C-held events back into the Python structures -- the heap as
 * (time, seq, callback) tuples, the run-queue merged into engine._ready
 * by seq as (seq, callback, arg) tuples -- on every loop exit, so the
 * engine's pending-event state matches the Python engine's. A fused-op
 * step carries a bound _advance made here, and its pending wake-up is
 * dispatched (and dropped) also when the op was closed since, as the
 * reference engine dispatches a cancelled generator's pending Timeout.
 * Returns -1 (with an exception set) if any event could not be moved;
 * every C-held reference is released either way. */
static int
flush_events(RunCtx *ctx)
{
    int rc = 0;
    while (ctx->ch_len > 0) {
        CEvent ev = cheap_pop(ctx);
        if (rc == 0) {
            PyObject *timeobj = PyFloat_FromDouble(ev.time);
            PyObject *seqobj = PyLong_FromLongLong(ev.seq);
            PyObject *cb = timeobj && seqobj ? event_callback(ev.kind, ev.obj) : NULL;
            PyObject *tup = cb != NULL ? PyTuple_Pack(3, timeobj, seqobj, cb) : NULL;
            Py_XDECREF(timeobj);
            Py_XDECREF(seqobj);
            Py_XDECREF(cb);
            PyObject *args[2] = {ctx->heap, tup};
            PyObject *r = tup != NULL ? call_c(g_heappush, NULL, args, 2) : NULL;
            Py_XDECREF(tup);
            if (r == NULL)
                rc = -1;
            Py_XDECREF(r);
        }
        Py_DECREF(ev.obj);
    }
    /* Merge: engine._ready's entries come out and go back in seq order
     * with the core's. */
    PyObject *pending = ctx->q_len > 0 ? PySequence_List(ctx->ready) : NULL;
    if (ctx->q_len > 0 && pending == NULL)
        rc = -1;
    if (pending != NULL && rc == 0) {
        PyObject *r = call_c(NULL, s_clear, &ctx->ready, 1);
        if (r == NULL)
            rc = -1;
        Py_XDECREF(r);
    }
    Py_ssize_t i = 0, n = pending != NULL ? PyList_GET_SIZE(pending) : 0;
    while (ctx->q_len > 0 || (rc == 0 && i < n)) {
        PyObject *item = NULL;
        if (rc == 0 && i < n) {
            PyObject *head = PyList_GET_ITEM(pending, i);
            long long seq = LLONG_MIN; /* a malformed entry keeps its place */
            if (ctx->q_len > 0 && PyTuple_Check(head) && PyTuple_GET_SIZE(head) == 3) {
                seq = PyLong_AsLongLong(PyTuple_GET_ITEM(head, 0));
                if (seq == -1 && PyErr_Occurred()) {
                    PyErr_Clear();
                    seq = LLONG_MIN;
                }
            }
            if (ctx->q_len == 0 || seq < ctx->q[ctx->q_head].seq) {
                item = Py_NewRef(head);
                i++;
            }
        }
        if (item == NULL) {
            QEntry e = q_pop(ctx);
            if (rc == 0) {
                PyObject *seqobj = PyLong_FromLongLong(e.seq);
                PyObject *cb = seqobj ? event_callback(e.kind, e.obj) : NULL;
                item = cb ? PyTuple_Pack(3, seqobj, cb, e.arg ? e.arg : Py_None)
                          : NULL;
                Py_XDECREF(cb);
                Py_XDECREF(seqobj);
                if (item == NULL)
                    rc = -1;
            }
            Py_DECREF(e.obj);
            Py_XDECREF(e.arg);
        }
        if (item != NULL) {
            PyObject *args[2] = {ctx->ready, item};
            PyObject *r = call_c(NULL, s_append, args, 2);
            Py_DECREF(item);
            if (r == NULL)
                rc = -1;
            Py_XDECREF(r);
        }
    }
    Py_XDECREF(pending);
    return rc;
}

/* The seq of engine._ready's head entry, or -1 with an exception. */
static int
ready_head_seq(PyObject *ready, long long *seq)
{
    PyObject *r0 = PySequence_GetItem(ready, 0);
    if (r0 == NULL || !PyTuple_Check(r0) || PyTuple_GET_SIZE(r0) != 3) {
        Py_XDECREF(r0);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "run-queue entry is not a (seq, cb, arg) tuple");
        return -1;
    }
    *seq = PyLong_AsLongLong(PyTuple_GET_ITEM(r0, 0));
    Py_DECREF(r0);
    return *seq == -1 && PyErr_Occurred() ? -1 : 0;
}

/* run(engine, until) -> 1 if stopped at the horizon, 0 if drained.
 * Counters, the clock and the seq counter are written back on every exit
 * path (the Python loop's `finally`), and callback exceptions propagate
 * unchanged. */
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
    memset(&ctx, 0, sizeof ctx);
    ctx.engine = engine;
    ctx.heap = get_attr(engine, s_heap);
    ctx.ready = ctx.heap ? get_attr(engine, s_ready) : NULL;
    if (ctx.ready != NULL &&
        (!PyList_Check(ctx.heap) || !Py_IS_TYPE(ctx.ready, g_deque_type)))
        PyErr_SetString(PyExc_TypeError, "engine._heap must be a list and "
                                         "engine._ready a collections.deque");
    PyObject *pop_ready =
        PyErr_Occurred() ? NULL : PyObject_GetAttr(ctx.ready, s_popleft);
    ctx.pub_now = pop_ready ? get_attr(engine, s_now) : NULL;
    ctx.pub_seq = ctx.pub_now ? get_attr(engine, s_seq) : NULL;

    long long dispatched = 0, from_ready = 0;
    int err = 0, horizon = 0;
    if (ctx.pub_seq == NULL ||
        get_ll(engine, s_events_dispatched, &dispatched) < 0 ||
        get_ll(engine, s_ready_dispatched, &from_ready) < 0 ||
        (ctx.now = PyFloat_AsDouble(ctx.pub_now), ctx.now == -1.0 && PyErr_Occurred()) ||
        (ctx.seq = PyLong_AsLongLong(ctx.pub_seq), ctx.seq == -1 && PyErr_Occurred())) {
        Py_XDECREF(ctx.heap);
        Py_XDECREF(ctx.ready);
        Py_XDECREF(pop_ready);
        Py_XDECREF(ctx.pub_now);
        Py_XDECREF(ctx.pub_seq);
        return NULL;
    }
    /* Nothing is held before this point, so the refusal above has no
     * buffer to give back. */
    if (!g_spare_busy) {
        ctx.ch = g_spare;
        ctx.ch_cap = g_spare_cap;
        g_spare_busy = 1;
    }
    else
        ctx.ch_owned = 1;
    double now = ctx.now; /* the loop's own clock: engine.now as it last set it */
    ctx.pub_seq_val = ctx.seq;
    ctx.now_obj = Py_NewRef(ctx.pub_now);

    for (;;) {
        Py_ssize_t nready = Py_SIZE(ctx.ready); /* a deque's length */

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
        int due = have_best && bt <= now;

        if (nready > 0 || ctx.q_len > 0) {
            /* the lower seq of the two run-queue heads, unless a due heap
             * event has a lower one still */
            int from_c = ctx.q_len > 0;
            long long rs = from_c ? ctx.q[ctx.q_head].seq : 0;
            if (nready > 0 && (from_c || due)) {
                long long ps;
                if (ready_head_seq(ctx.ready, &ps) < 0) {
                    err = 1;
                    break;
                }
                if (!from_c || ps < rs) {
                    rs = ps;
                    from_c = 0;
                }
            }
            int rc;
            if (due && bs < rs) {
                if (best_c) {
                    dispatched++;
                    CEvent ev = cheap_pop(&ctx);
                    rc = fire(&ctx, ev.kind, ev.obj, NULL);
                }
                else {
                    PyObject *item = call_c(g_heappop, NULL, &ctx.heap, 1);
                    if (item == NULL) {
                        err = 1;
                        break;
                    }
                    dispatched++;
                    rc = invoke_callback(&ctx, PyTuple_GET_ITEM(item, 2), NULL);
                    Py_DECREF(item);
                }
            }
            else if (from_c) {
                dispatched++;
                from_ready++;
                QEntry e = q_pop(&ctx);
                rc = fire(&ctx, e.kind, e.obj, e.arg);
            }
            else {
                PyObject *item = call_c(pop_ready, NULL, NULL, 0);
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
                rc = invoke_callback(&ctx, PyTuple_GET_ITEM(item, 1),
                                     PyTuple_GET_ITEM(item, 2));
                Py_DECREF(item);
            }
            if (rc < 0) {
                err = 1;
                break;
            }
        }
        else if (have_best) {
            if (bt > until) {
                now = until;
                horizon = 1;
            }
            else
                now = bt;
            if (ctx.now != now || ctx.now_obj == NULL ||
                !PyFloat_CheckExact(ctx.now_obj)) {
                ctx.now = now;
                Py_CLEAR(ctx.now_obj); /* made when first needed */
            }
            if (horizon)
                break;
            dispatched++;
            int rc;
            if (best_c) {
                CEvent ev = cheap_pop(&ctx);
                rc = fire(&ctx, ev.kind, ev.obj, NULL);
            }
            else {
                PyObject *item = call_c(g_heappop, NULL, &ctx.heap, 1);
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
     * events into the Python structures, publish the clock and counter,
     * write the counters back. Every step runs; the first exception (the
     * loop's, if it raised) is the one run() raises. */
    PyObject *et = NULL, *ev = NULL, *etb = NULL;
    if (err)
        PyErr_Fetch(&et, &ev, &etb);
#define KEEP_FIRST_ERROR(failed)                                               \
    do {                                                                       \
        if (failed) {                                                          \
            if (err)                                                           \
                PyErr_Clear();                                                 \
            else                                                               \
                PyErr_Fetch(&et, &ev, &etb);                                   \
            err = 1;                                                           \
        }                                                                      \
    } while (0)
    KEEP_FIRST_ERROR(flush_events(&ctx) < 0);
    KEEP_FIRST_ERROR(publish(&ctx) < 0);
    KEEP_FIRST_ERROR(set_ll(engine, s_events_dispatched, dispatched) < 0);
    KEEP_FIRST_ERROR(set_ll(engine, s_ready_dispatched, from_ready) < 0);
    /* Fold the fast-path deltas into whatever Python-side callbacks
     * already accumulated on the attributes during this run -- also when
     * a callback raised: the Python engine counted those events too. */
    long long base;
    KEEP_FIRST_ERROR(ctx.timeout_allocs != 0 &&
                     (get_ll(engine, s_timeout_allocs, &base) < 0 ||
                      set_ll(engine, s_timeout_allocs, base + ctx.timeout_allocs) < 0));
    KEEP_FIRST_ERROR(ctx.grants != 0 &&
                     (get_ll(engine, s_grant_resumes, &base) < 0 ||
                      set_ll(engine, s_grant_resumes, base + ctx.grants) < 0));
#undef KEEP_FIRST_ERROR
    if (et != NULL || ev != NULL || etb != NULL)
        PyErr_Restore(et, ev, etb);
    Py_DECREF(ctx.heap);
    Py_DECREF(ctx.ready);
    Py_DECREF(pop_ready);
    Py_XDECREF(ctx.now_obj);
    Py_DECREF(ctx.pub_now);
    Py_DECREF(ctx.pub_seq);
    free(ctx.q);
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

/* victims(bit_generator, victim, rank, n_ranks, peers, scan, count): the
 * `count` victims an idle pass draws from scan `scan` on, as a list; the
 * draw's own test entry (tests/simulate/test_victim_draw.py). */
static PyObject *
core_victims(PyObject *self, PyObject *args)
{
    PyObject *bit_generator, *peers;
    const char *victim;
    Py_ssize_t rank, n_ranks, count;
    long long scan;
    int kind;
    BitGen *bg;
    if (!PyArg_ParseTuple(args, "OsnnO!Ln:victims", &bit_generator, &victim, &rank, &n_ranks,
                          &PyTuple_Type, &peers, &scan, &count) ||
        victim_policy(victim, bit_generator, n_ranks, peers, &kind, &bg) < 0)
        return NULL;
    if (rank < 0 || rank >= n_ranks || scan < 0 || count < 0) {
        PyErr_SetString(PyExc_ValueError, "victims: a rank of n_ranks, scan and count >= 0");
        return NULL;
    }
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        Py_ssize_t v = pick_victim(bg, kind, rank, n_ranks, peers, scan + i);
        PyObject *item = v < 0 ? NULL : PyLong_FromSsize_t(v);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *
core_setup(PyObject *self, PyObject *args)
{
    PyObject *process_cls, *timeout_cls, *request_cls, *sim_error;
    PyObject *resource_cls, *timeout_pool, *trace_cls;
    if (!PyArg_ParseTuple(args, "OOOOOOO:setup", &process_cls, &timeout_cls,
                          &request_cls, &sim_error, &resource_cls, &timeout_pool,
                          &trace_cls))
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
    Py_XSETREF(g_timeout_cls, Py_NewRef(timeout_cls));
    Py_XSETREF(g_request_cls, Py_NewRef(request_cls));
    Py_XSETREF(g_sim_error, Py_NewRef(sim_error));
    Py_XSETREF(g_resume_func, resume);
    Py_XSETREF(g_deliver_func, deliver);
    Py_XSETREF(g_timeout_pool, Py_NewRef(timeout_pool));
    Py_XSETREF(g_resource_cls, Py_NewRef(resource_cls));
    Py_XSETREF(g_process_cls, Py_NewRef(process_cls));
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

/* heapq._siftdown and _siftup, line for line, over entries of type T
 * ordered by lt: _siftup moves the smaller child up to a leaf, then
 * _siftdown bubbles the item back towards startpos. */
#define DEFINE_HEAPQ_SIFTS(prefix, T, lt)                                      \
    static void prefix##_siftdown(T *h, Py_ssize_t startpos, Py_ssize_t pos)    \
    {                                                                          \
        T newitem = h[pos];                                                    \
        while (pos > startpos) {                                               \
            Py_ssize_t parentpos = (pos - 1) >> 1;                             \
            if (!lt(&newitem, &h[parentpos]))                                  \
                break;                                                         \
            h[pos] = h[parentpos];                                             \
            pos = parentpos;                                                   \
        }                                                                      \
        h[pos] = newitem;                                                      \
    }                                                                          \
    static void prefix##_siftup(T *h, Py_ssize_t endpos, Py_ssize_t pos)        \
    {                                                                          \
        Py_ssize_t startpos = pos;                                             \
        T newitem = h[pos];                                                    \
        Py_ssize_t childpos = 2 * pos + 1;                                     \
        while (childpos < endpos) {                                            \
            Py_ssize_t rightpos = childpos + 1;                                \
            if (rightpos < endpos && !lt(&h[childpos], &h[rightpos]))          \
                childpos = rightpos;                                           \
            h[pos] = h[childpos];                                              \
            pos = childpos;                                                    \
            childpos = 2 * pos + 1;                                            \
        }                                                                      \
        h[pos] = newitem;                                                      \
        prefix##_siftdown(h, startpos, pos);                                   \
    }

DEFINE_HEAPQ_SIFTS(fm, FmEntry, fm_lt)

/* heappush / heappop, line for line. */
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

/* Every value lies in [0, bound). */
static int
k_check_range(const char *fn, const char *name, const int64_t *val, Py_ssize_t len,
              Py_ssize_t bound)
{
    for (Py_ssize_t i = 0; i < len; i++) {
        if (val[i] < 0 || val[i] >= bound) {
            PyErr_Format(PyExc_ValueError, "%s: %s value %lld at %zd is outside [0, %zd)",
                         fn, name, (long long)val[i], i, bound);
            return -1;
        }
    }
    return 0;
}

/* `off` has rows + 1 entries starting at 0 and ending at nval, each row
 * at least `min_row` long; every value lies in [0, bound). */
static int
k_check_csr(const char *fn, const char *name, const int64_t *off, Py_ssize_t rows,
            const int64_t *val, Py_ssize_t nval, Py_ssize_t bound, int min_row)
{
    if (off[0] != 0 || off[rows] != nval) {
        PyErr_Format(PyExc_ValueError, "%s: %s offsets must run from 0 to %zd", fn,
                     name, nval);
        return -1;
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        /* off[r] is in [0, nval] by induction, so the sum cannot overflow. */
        if (off[r + 1] < off[r] + min_row || off[r + 1] > nval) {
            PyErr_Format(PyExc_ValueError, "%s: %s offsets are out of order at row %zd",
                         fn, name, r);
            return -1;
        }
    }
    return k_check_range(fn, name, val, nval, bound);
}

static int
k_check_finite(const char *fn, const char *name, const double *x, Py_ssize_t len)
{
    for (Py_ssize_t i = 0; i < len; i++) {
        if (!isfinite(x[i])) {
            PyErr_Format(PyExc_ValueError, "%s: %s[%zd] is not finite", fn, name, i);
            return -1;
        }
    }
    return 0;
}

/* `p` holds each of 0 .. n-1 once. */
static int
k_check_permutation(const char *fn, const char *name, const int64_t *p, Py_ssize_t n)
{
    if (k_check_range(fn, name, p, n, n) < 0)
        return -1;
    char *seen = PyMem_Calloc((size_t)n + 1, 1);
    if (seen == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int rc = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (seen[p[i]]) {
            PyErr_Format(PyExc_ValueError, "%s: %s repeats %lld at %zd", fn, name,
                         (long long)p[i], i);
            rc = -1;
            break;
        }
        seen[p[i]] = 1;
    }
    PyMem_Free(seen);
    return rc;
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

/* The hypergraph a partitioner kernel takes first, as buf[0..5]: vertex
 * weights, one value per net (named `per_net` in errors), xpins/pins and
 * xnets/vnets. The lengths agree, both CSRs hold and the weights are
 * finite. */
static int
k_check_hypergraph(const char *fn, const char *per_net, const Py_buffer *buf)
{
    Py_ssize_t n = buf[0].shape[0], m = buf[1].shape[0], npins = buf[3].shape[0];
    if (buf[2].shape[0] != m + 1 || buf[4].shape[0] != n + 1 || buf[5].shape[0] != npins) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", fn);
        return -1;
    }
    if (k_check_csr(fn, "xpins/pins", buf[2].buf, m, buf[3].buf, npins, n, 1) < 0
        || k_check_csr(fn, "xnets/vnets", buf[4].buf, n, buf[5].buf, npins, m, 0) < 0
        || k_check_finite(fn, "vertex_weights", buf[0].buf, n) < 0
        || k_check_finite(fn, per_net, buf[1].buf, m) < 0)
        return -1;
    return 0;
}

/* n sides, each 0 or 1. */
static int
k_check_side(const char *fn, const Py_buffer *side, Py_ssize_t n)
{
    const signed char *s = side->buf;
    if (side->shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", fn);
        return -1;
    }
    for (Py_ssize_t v = 0; v < n; v++) {
        if (s[v] != 0 && s[v] != 1) {
            PyErr_Format(PyExc_ValueError, "%s: side[%zd] is %d, not 0 or 1", fn, v,
                         (int)s[v]);
            return -1;
        }
    }
    return 0;
}

/* fm_pass(vertex_weights, net_weights, xpins, pins, xnets, vnets, side,
 *         w0, lo, hi, target0) -> bool */
static PyObject *
core_fm_pass(PyObject *self, PyObject *args)
{
    static const KSpec spec[7] = {
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
    if (k_buffers("fm_pass", spec, obj, buf, 7) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n = buf[0].shape[0], m = buf[1].shape[0];
    if (k_check_hypergraph("fm_pass", "net_weights", buf) < 0
        || k_check_side("fm_pass", &buf[6], n) < 0)
        goto done;
    int improved = fm_run(n, m, buf[0].buf, buf[1].buf, buf[2].buf, buf[3].buf,
                          buf[4].buf, buf[5].buf, buf[6].buf, w0, lo, hi, target0);
    if (improved >= 0)
        result = PyBool_FromLong(improved);
done:
    k_release(buf, 7);
    return result;
}

/* ------------------------------------------------------------------------
 * The partitioner's two other loops over the same CSRs: the visit loop of
 * repro.balance.partition._heavy_connectivity_matching and the absorption
 * loop of _grow_region. As with fm_pass the Python bodies are the
 * reference, and each rule below is one of their lines, so every
 * partition is bit-identical:
 *
 * - hc_matching: vertices in the order given (the caller's
 *   rng.permutation). For a free one, each pin of each of its nets of 2 to
 *   max_net pins adds the net's share (the caller's NumPy division) into a
 *   slot that starts at 0.0, nets in vnets order, then pins: the order
 *   np.bincount(weights=) adds in. Over the same pins in the same order a
 *   pin scores its slot if it is free and the pair stays under the weight
 *   cap, -1.0 if not, and the first pin to beat the best so far takes
 *   over: np.argmax's first maximum. (Finite shares cannot sum to a NaN: a
 *   slot that overflows to an infinity stays there.) A best above 0.0
 *   pairs the two.
 * - grow_region: from the seed given, absorb a vertex (w0 += its weight;
 *   stop once w0 >= target0), add each of its nets' weight to every
 *   unabsorbed pin, net then pin (np.add.at's order), and absorb next the
 *   highest score, smallest id among the touched, unabsorbed vertices:
 *   cand.argmax()'s first maximum. Weights are finite and >= 0, so a score
 *   only grows and is never NaN, and the frontier is a heap of vertex ids
 *   ordered by (-score, id) with a slot index per vertex: an add sifts its
 *   vertex up, and the heap never holds more than n entries. When it runs
 *   empty the kernel returns w0 and Python draws the next seed from its
 *   rng (or stops) and calls again. Every vertex touched before then has
 *   been absorbed, so a call starts with each unabsorbed score at 0.0 and
 *   needs only side and w0.
 *
 * No multiply-add, so FP contraction cannot reorder a rounding. Every
 * input is checked before it is used as an index (dtypes, lengths, both
 * CSRs, the order being a permutation, finite weights and, for
 * grow_region, net weights >= 0, sides in {0, 1} and an unabsorbed seed);
 * scratch comes from PyMem_* before anything is written, so a MemoryError
 * leaves the caller's arrays as they were. */

static int
hc_run(Py_ssize_t n, const double *vw, const double *share, const int64_t *xpins,
       const int64_t *pins, const int64_t *xnets, const int64_t *vnets,
       const int64_t *order, int64_t *match, double weight_cap, Py_ssize_t max_net)
{
    double *totals = PyMem_Calloc((size_t)n + 1, sizeof(double));
    char *is_free = PyMem_Malloc((size_t)n + 1);
    if (totals == NULL || is_free == NULL) {
        PyMem_Free(totals);
        PyMem_Free(is_free);
        PyErr_NoMemory();
        return -1;
    }
    memset(is_free, 1, (size_t)n);
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t v = order[i];
        if (!is_free[v])
            continue;
        is_free[v] = 0;
        int64_t partner = v;
        const int64_t *first = vnets + xnets[v], *last = vnets + xnets[v + 1];
        int scored = 0;
        for (const int64_t *e = first; e < last; e++) {
            int64_t size = xpins[*e + 1] - xpins[*e];
            if (size < 2 || size > max_net)
                continue;
            scored = 1;
            for (int64_t p = xpins[*e]; p < xpins[*e + 1]; p++)
                totals[pins[p]] += share[*e];
        }
        if (scored) {
            double best = 0.0;
            int64_t best_u = -1;
            for (const int64_t *e = first; e < last; e++) {
                int64_t size = xpins[*e + 1] - xpins[*e];
                if (size < 2 || size > max_net)
                    continue;
                for (int64_t p = xpins[*e]; p < xpins[*e + 1]; p++) {
                    int64_t u = pins[p];
                    double s = is_free[u] && vw[v] + vw[u] <= weight_cap ? totals[u] : -1.0;
                    if (best_u < 0 || s > best) {
                        best = s;
                        best_u = u;
                    }
                }
            }
            if (best > 0.0) {
                partner = best_u;
                is_free[partner] = 0;
            }
            for (const int64_t *e = first; e < last; e++)
                for (int64_t p = xpins[*e]; p < xpins[*e + 1]; p++)
                    totals[pins[p]] = 0.0;
        }
        match[v] = partner;
        match[partner] = v;
    }
    PyMem_Free(totals);
    PyMem_Free(is_free);
    return 0;
}

/* hc_matching(vertex_weights, shares, xpins, pins, xnets, vnets, order,
 *             match, weight_cap, max_net) */
static PyObject *
core_hc_matching(PyObject *self, PyObject *args)
{
    static const char fn[] = "hc_matching";
    static const KSpec spec[8] = {
        {"vertex_weights", "d", 8, 0}, {"shares", "d", 8, 0}, {"xpins", "lq", 8, 0},
        {"pins", "lq", 8, 0},          {"xnets", "lq", 8, 0}, {"vnets", "lq", 8, 0},
        {"order", "lq", 8, 0},         {"match", "lq", 8, 1},
    };
    PyObject *obj[8];
    Py_buffer buf[8];
    double weight_cap;
    Py_ssize_t max_net;
    if (!PyArg_ParseTuple(args, "OOOOOOOOdn:hc_matching", &obj[0], &obj[1], &obj[2],
                          &obj[3], &obj[4], &obj[5], &obj[6], &obj[7], &weight_cap,
                          &max_net))
        return NULL;
    if (k_buffers(fn, spec, obj, buf, 8) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n = buf[0].shape[0];
    if (k_check_hypergraph(fn, "shares", buf) < 0)
        goto done;
    if (buf[6].shape[0] != n || buf[7].shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", fn);
        goto done;
    }
    if (k_check_permutation(fn, "order", buf[6].buf, n) < 0)
        goto done;
    if (hc_run(n, buf[0].buf, buf[1].buf, buf[2].buf, buf[3].buf, buf[4].buf, buf[5].buf,
               buf[6].buf, buf[7].buf, weight_cap, max_net) == 0)
        result = Py_NewRef(Py_None);
done:
    k_release(buf, 8);
    return result;
}

/* Whether vertex a leaves the frontier before b: higher score, then
 * smaller id. */
static inline int
gr_before(const double *score, int64_t a, int64_t b)
{
    if (score[a] != score[b])
        return score[a] > score[b];
    return a < b;
}

/* Absorb from `start` until w0 reaches target0 or the frontier is empty;
 * 0, or -1 on a failed allocation. */
static int
grow_run(Py_ssize_t n, const double *vw, const double *nw, const int64_t *xpins,
         const int64_t *pins, const int64_t *xnets, const int64_t *vnets,
         signed char *side, int64_t start, double *w0, double target0)
{
    double *score = PyMem_Calloc((size_t)n + 1, sizeof(double));
    int64_t *heap = PyMem_New(int64_t, (size_t)n + 1);
    Py_ssize_t *slot = PyMem_New(Py_ssize_t, (size_t)n + 1);
    if (score == NULL || heap == NULL || slot == NULL) {
        PyMem_Free(score);
        PyMem_Free(heap);
        PyMem_Free(slot);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t v = 0; v < n; v++)
        slot[v] = -1;
    Py_ssize_t len = 0;
    int64_t cur = start;
    double w = *w0;
    for (;;) {
        side[cur] = 0;
        w += vw[cur];
        if (w >= target0)
            break;
        for (int64_t k = xnets[cur]; k < xnets[cur + 1]; k++) {
            int64_t e = vnets[k];
            for (int64_t p = xpins[e]; p < xpins[e + 1]; p++) {
                int64_t u = pins[p];
                if (!side[u])
                    continue;
                score[u] += nw[e];
                Py_ssize_t i = slot[u] < 0 ? len++ : slot[u];
                while (i > 0) {
                    Py_ssize_t parent = (i - 1) >> 1;
                    if (!gr_before(score, u, heap[parent]))
                        break;
                    heap[i] = heap[parent];
                    slot[heap[i]] = i;
                    i = parent;
                }
                heap[i] = u;
                slot[u] = i;
            }
        }
        if (len == 0)
            break;
        cur = heap[0];
        int64_t moved = heap[--len];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= len)
                break;
            if (child + 1 < len && gr_before(score, heap[child + 1], heap[child]))
                child++;
            if (!gr_before(score, heap[child], moved))
                break;
            heap[i] = heap[child];
            slot[heap[i]] = i;
            i = child;
        }
        if (len > 0) {
            heap[i] = moved;
            slot[moved] = i;
        }
    }
    *w0 = w;
    PyMem_Free(score);
    PyMem_Free(heap);
    PyMem_Free(slot);
    return 0;
}

/* grow_region(vertex_weights, net_weights, xpins, pins, xnets, vnets, side,
 *             start, w0, target0) -> float: w0 when the kernel stopped */
static PyObject *
core_grow_region(PyObject *self, PyObject *args)
{
    static const char fn[] = "grow_region";
    static const KSpec spec[7] = {
        {"vertex_weights", "d", 8, 0}, {"net_weights", "d", 8, 0},
        {"xpins", "lq", 8, 0},         {"pins", "lq", 8, 0},
        {"xnets", "lq", 8, 0},         {"vnets", "lq", 8, 0},
        {"side", "b", 1, 1},
    };
    PyObject *obj[7];
    Py_buffer buf[7];
    Py_ssize_t start;
    double w0, target0;
    if (!PyArg_ParseTuple(args, "OOOOOOOndd:grow_region", &obj[0], &obj[1], &obj[2],
                          &obj[3], &obj[4], &obj[5], &obj[6], &start, &w0, &target0))
        return NULL;
    if (k_buffers(fn, spec, obj, buf, 7) < 0)
        return NULL;
    PyObject *result = NULL;
    const double *nw = buf[1].buf;
    signed char *side = buf[6].buf;
    Py_ssize_t n = buf[0].shape[0], m = buf[1].shape[0];
    if (k_check_hypergraph(fn, "net_weights", buf) < 0 || k_check_side(fn, &buf[6], n) < 0)
        goto done;
    for (Py_ssize_t e = 0; e < m; e++) {
        if (nw[e] < 0) {
            PyErr_Format(PyExc_ValueError, "%s: net_weights[%zd] is negative", fn, e);
            goto done;
        }
    }
    if (start < 0 || start >= n || side[start] != 1) {
        PyErr_Format(PyExc_ValueError, "%s: start %zd is not an unabsorbed vertex", fn,
                     start);
        goto done;
    }
    if (grow_run(n, buf[0].buf, nw, buf[2].buf, buf[3].buf, buf[4].buf, buf[5].buf, side,
                 start, &w0, target0) == 0)
        result = PyFloat_FromDouble(w0);
done:
    k_release(buf, 7);
    return result;
}

/* ------------------------------------------------------------------------
 * The cheap balancers' per-task loops over plain arrays: the compiled
 * forms of repro.balance.semi_matching.greedy_semi_matching, of one
 * refinement sweep of weighted_semi_matching, and of
 * repro.balance.greedy.lpt. As with fm_pass the Python bodies are the
 * reference, and each rule below is one of their lines, so every
 * assignment is bit-identical:
 *
 * - greedy: tasks in the order given (the caller's stable argsort of
 *   -costs), each to the first least-loaded rank of its row in row order,
 *   by a strict `<` (how min(key=) keeps the first minimum). Rows are read
 *   as given, unsorted and duplicated ones too.
 * - sweep: ranks in the order given (NumPy's argsort of -loads, which is
 *   unstable, so no C sort may stand in for it); a rank's tasks by (-cost,
 *   arrival), where arrival is a per-task stamp: ascending tid, then
 *   moved-in tasks in the order they moved, which is the order the
 *   reference's tasks_on lists hold them. Each task is tested on the loads
 *   as they are when it comes up (a move re-tests the tail on the new
 *   loads) and goes to the first rank d != its own whose peak
 *   max(load_r - c, load_d + c), Python's max (the first argument unless
 *   the second is greater), beats the best so far by more than 1e-12.
 * - lpt: a heap of (load, rank) compared as Python tuples; heapreplace is
 *   heapq's: the new top sifts to a leaf (_siftup), then back (_siftdown).
 *
 * No multiply-add, so FP contraction cannot reorder a rounding. Every
 * input is checked before it is used as an index (dtypes, lengths, the
 * CSR, ranks and assignments in range, orders being permutations, finite
 * costs); scratch comes from PyMem_* before anything is written, so a
 * MemoryError leaves the caller's arrays as they were. */

typedef struct {
    double load;
    int64_t rank;
} LptEntry;

/* Python tuple `<` on (load, rank). */
static inline int
lpt_lt(const LptEntry *a, const LptEntry *b)
{
    if (!(a->load == b->load))
        return a->load < b->load;
    return a->rank < b->rank;
}

DEFINE_HEAPQ_SIFTS(lpt, LptEntry, lpt_lt)

static int
greedy_run(Py_ssize_t n, Py_ssize_t n_ranks, const double *costs, const int64_t *offsets,
           const int64_t *ranks, const int64_t *order, int64_t *assignment)
{
    double *loads = PyMem_Calloc((size_t)n_ranks, sizeof(double));
    if (loads == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t tid = order[i];
        const int64_t *r = ranks + offsets[tid], *end = ranks + offsets[tid + 1];
        int64_t best = *r;
        double best_load = loads[best];
        for (r++; r < end; r++) {
            if (loads[*r] < best_load) {
                best = *r;
                best_load = loads[best];
            }
        }
        assignment[tid] = best;
        loads[best] += costs[tid];
    }
    PyMem_Free(loads);
    return 0;
}

/* greedy_semi_matching(costs, offsets, ranks, order, assignment, n_ranks) */
static PyObject *
core_greedy_semi_matching(PyObject *self, PyObject *args)
{
    static const char fn[] = "greedy_semi_matching";
    static const KSpec spec[5] = {
        {"costs", "d", 8, 0}, {"offsets", "lq", 8, 0}, {"ranks", "lq", 8, 0},
        {"order", "lq", 8, 0}, {"assignment", "lq", 8, 1},
    };
    PyObject *obj[5];
    Py_buffer buf[5];
    Py_ssize_t n_ranks;
    if (!PyArg_ParseTuple(args, "OOOOOn:greedy_semi_matching", &obj[0], &obj[1],
                          &obj[2], &obj[3], &obj[4], &n_ranks))
        return NULL;
    if (n_ranks < 1) {
        PyErr_Format(PyExc_ValueError, "%s: n_ranks must be >= 1, got %zd", fn, n_ranks);
        return NULL;
    }
    if (k_buffers(fn, spec, obj, buf, 5) < 0)
        return NULL;
    PyObject *result = NULL;
    const double *costs = buf[0].buf;
    const int64_t *offsets = buf[1].buf, *ranks = buf[2].buf, *order = buf[3].buf;
    Py_ssize_t n = buf[0].shape[0];
    if (buf[1].shape[0] != n + 1 || buf[3].shape[0] != n || buf[4].shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", fn);
        goto done;
    }
    if (k_check_finite(fn, "costs", costs, n) < 0
        || k_check_csr(fn, "offsets/ranks", offsets, n, ranks, buf[2].shape[0], n_ranks,
                       1) < 0
        || k_check_permutation(fn, "order", order, n) < 0)
        goto done;
    if (greedy_run(n, n_ranks, costs, offsets, ranks, order, buf[4].buf) == 0)
        result = Py_NewRef(Py_None);
done:
    k_release(buf, 5);
    return result;
}

/* A task as a sweep visits it. Stamps are unique, so (-cost, stamp) is a
 * total order and qsort's instability cannot show. */
typedef struct {
    double cost;
    int64_t stamp, tid;
} SmTask;

static int
sm_cmp(const void *pa, const void *pb)
{
    const SmTask *a = pa, *b = pb;
    if (a->cost != b->cost)
        return a->cost > b->cost ? -1 : 1;
    return (a->stamp > b->stamp) - (a->stamp < b->stamp);
}

/* One sweep; 1 if a task moved, 0 if none did, -1 on a failed allocation.
 * At its visit a rank holds the tasks it held when the sweep began (its
 * segment of `resident`: only a rank's own visit moves its tasks out) and
 * those that moved in since, in the order they did (its list through
 * head/tail/nxt). The visit gathers both, sorts them by (-cost, stamp) and
 * empties the list: a rank is visited once a sweep, and a task that moves
 * on from it must not stay linked to it. So the lists are disjoint and the
 * gathered tasks fit in n. */
static int
sweep_run(Py_ssize_t n, Py_ssize_t n_ranks, const double *costs, const int64_t *offsets,
          const int64_t *ranks, const int64_t *visit, int64_t *assignment, double *loads,
          int64_t *stamps, int64_t next_stamp)
{
    int rc = -1;
    int64_t *resident = PyMem_New(int64_t, (size_t)n + 1);
    SmTask *on = PyMem_New(SmTask, (size_t)n + 1);
    Py_ssize_t *start = PyMem_Calloc((size_t)n_ranks + 1, sizeof(Py_ssize_t));
    int64_t *head = PyMem_New(int64_t, (size_t)n_ranks);
    int64_t *tail = PyMem_New(int64_t, (size_t)n_ranks);
    int64_t *nxt = PyMem_New(int64_t, (size_t)n + 1);
    if (!resident || !on || !start || !head || !tail || !nxt) {
        PyErr_NoMemory();
        goto out;
    }
    for (Py_ssize_t t = 0; t < n; t++)
        start[assignment[t] + 1]++;
    for (Py_ssize_t r = 0; r < n_ranks; r++) {
        start[r + 1] += start[r];
        tail[r] = start[r]; /* the fill cursor, for now */
    }
    for (Py_ssize_t t = 0; t < n; t++)
        resident[tail[assignment[t]]++] = t;
    for (Py_ssize_t r = 0; r < n_ranks; r++)
        head[r] = tail[r] = -1;

    int moved = 0;
    for (Py_ssize_t i = 0; i < n_ranks; i++) {
        int64_t rank = visit[i];
        Py_ssize_t k = 0;
        for (Py_ssize_t j = start[rank]; j < start[rank + 1]; j++) {
            int64_t t = resident[j];
            on[k++] = (SmTask){costs[t], stamps[t], t};
        }
        for (int64_t t = head[rank]; t >= 0; t = nxt[t])
            on[k++] = (SmTask){costs[t], stamps[t], t};
        head[rank] = tail[rank] = -1;
        qsort(on, (size_t)k, sizeof(SmTask), sm_cmp);
        for (Py_ssize_t j = 0; j < k; j++) {
            int64_t t = on[j].tid;
            double c = costs[t], load_r = loads[rank], up = load_r - c;
            double best_peak = load_r;
            int64_t best = -1;
            for (int64_t e = offsets[t]; e < offsets[t + 1]; e++) {
                int64_t d = ranks[e];
                if (d == rank)
                    continue;
                double down = loads[d] + c;
                double peak = down > up ? down : up;
                if (peak < best_peak - 1e-12) {
                    best = d;
                    best_peak = peak;
                }
            }
            if (best < 0)
                continue;
            loads[rank] = up;
            loads[best] += c;
            assignment[t] = best;
            stamps[t] = next_stamp++;
            nxt[t] = -1;
            if (tail[best] < 0)
                head[best] = t;
            else
                nxt[tail[best]] = t;
            tail[best] = t;
            moved = 1;
        }
    }
    rc = moved;
out:
    PyMem_Free(resident);
    PyMem_Free(on);
    PyMem_Free(start);
    PyMem_Free(head);
    PyMem_Free(tail);
    PyMem_Free(nxt);
    return rc;
}

/* semi_matching_sweep(costs, offsets, ranks, visit, assignment, loads,
 *                     stamps) -> bool */
static PyObject *
core_semi_matching_sweep(PyObject *self, PyObject *args)
{
    static const char fn[] = "semi_matching_sweep";
    static const KSpec spec[7] = {
        {"costs", "d", 8, 0},      {"offsets", "lq", 8, 0},   {"ranks", "lq", 8, 0},
        {"visit", "lq", 8, 0},     {"assignment", "lq", 8, 1}, {"loads", "d", 8, 1},
        {"stamps", "lq", 8, 1},
    };
    PyObject *obj[7];
    Py_buffer buf[7];
    if (!PyArg_ParseTuple(args, "OOOOOOO:semi_matching_sweep", &obj[0], &obj[1],
                          &obj[2], &obj[3], &obj[4], &obj[5], &obj[6]))
        return NULL;
    if (k_buffers(fn, spec, obj, buf, 7) < 0)
        return NULL;
    PyObject *result = NULL;
    const double *costs = buf[0].buf;
    const int64_t *offsets = buf[1].buf, *ranks = buf[2].buf, *visit = buf[3].buf;
    int64_t *assignment = buf[4].buf, *stamps = buf[6].buf;
    Py_ssize_t n = buf[0].shape[0], n_ranks = buf[5].shape[0];
    if (buf[1].shape[0] != n + 1 || buf[3].shape[0] != n_ranks
        || buf[4].shape[0] != n || buf[6].shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", fn);
        goto done;
    }
    if (k_check_finite(fn, "costs", costs, n) < 0
        || k_check_csr(fn, "offsets/ranks", offsets, n, ranks, buf[2].shape[0], n_ranks,
                       1) < 0
        || k_check_permutation(fn, "visit", visit, n_ranks) < 0
        || k_check_range(fn, "assignment", assignment, n, n_ranks) < 0
        || k_check_range(fn, "stamps", stamps, n, INT64_MAX) < 0)
        goto done;
    /* A task moves at most once per rank visit, so a sweep hands out at
     * most n * n_ranks new stamps. */
    int64_t next_stamp = 0;
    for (Py_ssize_t t = 0; t < n; t++)
        if (stamps[t] >= next_stamp)
            next_stamp = stamps[t] + 1;
    if (n_ranks && n > (INT64_MAX - next_stamp) / n_ranks) {
        PyErr_Format(PyExc_OverflowError, "%s: stamps too large", fn);
        goto done;
    }
    int moved = sweep_run(n, n_ranks, costs, offsets, ranks, visit, assignment,
                          buf[5].buf, stamps, next_stamp);
    if (moved >= 0)
        result = PyBool_FromLong(moved);
done:
    k_release(buf, 7);
    return result;
}

/* lpt(costs, order, assignment, n_ranks) */
static PyObject *
core_lpt(PyObject *self, PyObject *args)
{
    static const char fn[] = "lpt";
    static const KSpec spec[3] = {
        {"costs", "d", 8, 0}, {"order", "lq", 8, 0}, {"assignment", "lq", 8, 1},
    };
    PyObject *obj[3];
    Py_buffer buf[3];
    Py_ssize_t n_ranks;
    if (!PyArg_ParseTuple(args, "OOOn:lpt", &obj[0], &obj[1], &obj[2], &n_ranks))
        return NULL;
    if (n_ranks < 1) {
        PyErr_Format(PyExc_ValueError, "%s: n_ranks must be >= 1, got %zd", fn, n_ranks);
        return NULL;
    }
    if (k_buffers(fn, spec, obj, buf, 3) < 0)
        return NULL;
    PyObject *result = NULL;
    const double *costs = buf[0].buf;
    const int64_t *order = buf[1].buf;
    int64_t *assignment = buf[2].buf;
    Py_ssize_t n = buf[0].shape[0];
    if (buf[1].shape[0] != n || buf[2].shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "%s: array lengths disagree", fn);
        goto done;
    }
    if (k_check_finite(fn, "costs", costs, n) < 0
        || k_check_permutation(fn, "order", order, n) < 0)
        goto done;
    LptEntry *heap = PyMem_New(LptEntry, (size_t)n_ranks);
    if (heap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* [(0.0, r) for r in range(n_ranks)] is sorted, so heapify leaves it
     * as it is. */
    for (Py_ssize_t r = 0; r < n_ranks; r++) {
        heap[r].load = 0.0;
        heap[r].rank = r;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t tid = order[i];
        assignment[tid] = heap[0].rank;
        heap[0].load = heap[0].load + costs[tid];
        lpt_siftup(heap, n_ranks, 0);
    }
    PyMem_Free(heap);
    result = Py_NewRef(Py_None);
done:
    k_release(buf, 3);
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
    {"hc_matching", core_hc_matching, METH_VARARGS,
     "hc_matching(vertex_weights, shares, xpins, pins, xnets, vnets, order, "
     "match, weight_cap, max_net): fill match; the compiled visit loop of "
     "repro.balance.partition._heavy_connectivity_matching."},
    {"grow_region", core_grow_region, METH_VARARGS,
     "grow_region(vertex_weights, net_weights, xpins, pins, xnets, vnets, "
     "side, start, w0, target0) -> float: absorb from start into side 0 until "
     "w0 >= target0 or the frontier is empty, return w0; the compiled "
     "absorption loop of repro.balance.partition._grow_region."},
    {"greedy_semi_matching", core_greedy_semi_matching, METH_VARARGS,
     "greedy_semi_matching(costs, offsets, ranks, order, assignment, n_ranks): "
     "fill assignment; the compiled loop of "
     "repro.balance.semi_matching.greedy_semi_matching."},
    {"semi_matching_sweep", core_semi_matching_sweep, METH_VARARGS,
     "semi_matching_sweep(costs, offsets, ranks, visit, assignment, loads, "
     "stamps) -> bool: one refinement sweep of "
     "repro.balance.semi_matching.weighted_semi_matching, arrays updated in "
     "place; True if a task moved."},
    {"lpt", core_lpt, METH_VARARGS,
     "lpt(costs, order, assignment, n_ranks): fill assignment; the compiled "
     "loop of repro.balance.greedy.lpt."},
    {"victims", core_victims, METH_VARARGS,
     "victims(bit_generator, victim, rank, n_ranks, peers, scan, count) -> list: the "
     "victims a stealing rank's idle pass draws, WorkStealing._choose_victim's on "
     "the Generator's own bit generator."},
    {"setup", core_setup, METH_VARARGS,
     "setup(Process, Timeout, Request, SimulationError, Resource, "
     "timeout_pool, TraceRecorder): register the engine's collaborator "
     "classes and the shared Timeout freelist."},
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
    PyObject *heapq = PyImport_ImportModule("_heapq"); /* C only: see call_c */
    if (heapq == NULL)
        return NULL;
    g_heappush = PyObject_GetAttrString(heapq, "heappush");
    g_heappop = PyObject_GetAttrString(heapq, "heappop");
    Py_DECREF(heapq);
    if (g_heappush == NULL || g_heappop == NULL)
        return NULL;
    PyObject *collections = PyImport_ImportModule("collections");
    if (collections == NULL)
        return NULL;
    g_deque_type = (PyTypeObject *)PyObject_GetAttrString(collections, "deque");
    Py_DECREF(collections);
    if (g_deque_type == NULL)
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
    INTERN(s_clear, "clear");
    INTERN(s_pop, "pop");
    INTERN(s_extend, "extend");
    INTERN(s_capsule, "capsule");
    INTERN_ATTR(s_done, "done");
    INTERN_ATTR(s_cancelled, "cancelled");
    INTERN_ATTR(s_send, "_send");
    INTERN_ATTR(s_engine, "engine");
    INTERN_ATTR(s_delay, "delay");
    INTERN_ATTR(s_name, "name");
    INTERN_ATTR(s_value, "value");
    INTERN_ATTR(s_tag, "tag");
    INTERN(s_finish, "_finish");
    INTERN(s_activate, "activate");
    INTERN(s_release, "release");
    INTERN(s_record_compute, "record_compute");
    INTERN(s_compute, "compute");
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
    INTERN_ATTR(s_task_ids, "task_ids");
    INTERN_ATTR(s_task_ranks, "task_ranks");
    INTERN_ATTR(s_task_starts, "task_starts");
    INTERN_ATTR(s_task_ends, "task_ends");
#undef INTERN_ATTR
#undef INTERN

    if (PyType_Ready(&FusedOpType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObject(module, "FusedOp", Py_NewRef(&FusedOpType)) < 0) {
        Py_DECREF(&FusedOpType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "SOURCE_DIGEST", REPRO_SOURCE_DIGEST) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
