/* The Python face of the kernels: the extension module _kernels, one
 * function per covprune_* kernel of the files it includes, under the
 * kernel's name and taking its arguments in its order, but for lines,
 * which returns its output as a new bytearray in place of taking it.
 *
 * take() checks every argument before a kernel runs.  An integer is an
 * int64; a pointer is a C-contiguous buffer of the declared item type,
 * array.array, memoryview or numpy array alike, and a buffer the kernel
 * writes must be writable.  Anything else, a wrong argument count
 * included, raises TypeError (OverflowError for an integer beyond
 * int64) and leaves every buffer untouched.  Then each kernel's rule
 * checks that its counts are in range and that every buffer holds the
 * items they imply, or raises ValueError, again before the kernel runs.
 * A kernel that checks its indices returns a negative status, raised
 * here as ValueError, as is parse's -3, a record past its columns; the
 * others' results, parse's -1 and -2 among them, go back to the caller.
 * The radix scratch of profile and sweep, and the sweep's store, are
 * allocated here and left uninitialized, so the passes a sorted column
 * skips never touch them.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <ctype.h>
#include <stdint.h>
#include <string.h>

/* The kernels, compiled with this file as one unit: the definition of
 * each, static, is the one declaration its call below is checked
 * against, and a kernel no call uses fails -Wunused-function. */
#include "_arrays.c"
#include "_flow.c"
#include "_parse.c"
#include "_profile.c"
#include "_sweep.c"

#define MAX_ARGS 11

/* what a kernel's result means: nothing, a value, a status that is an
 * error when negative, or parse's record count, an error below -2 */
enum { NONE, VALUE, STATUS, RECORDS };

typedef union {
    int64_t n;
    void *p;
} Arg;

/* One buffer argument into view: a C-contiguous buffer of the array
 * type code `code`'s items, writable with `out`. */
static int take_buffer(const char *name, Py_ssize_t at, PyObject *obj, char code, int out,
                       Py_buffer *view)
{
    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s: argument %zd takes a buffer of '%c' items, not %.100s",
                     name, at + 1, code, Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    /* numpy's int64 reads 'l' where array's reads 'q': the size and the
     * signedness decide */
    const char *format = view->format ? view->format : "B";
    format += *format == '@';
    Py_ssize_t size = code == 'B' ? 1 : code == 'i' ? 4 : 8;
    int readonly = out && view->readonly, strided = !PyBuffer_IsContiguous(view, 'C');
    if (format[0] && !format[1] && strchr("bBhHiIlLqQ", format[0]) && view->itemsize == size
        && !islower(format[0]) == !islower(code) && !readonly && !strided)
        return 0;
    PyErr_Format(PyExc_TypeError,
                 "%s: argument %zd is a %s%sbuffer of '%s' where the kernel takes %scontiguous "
                 "'%c' items",
                 name, at + 1, readonly ? "read-only " : "", strided ? "strided " : "",
                 view->format ? view->format : "B", out ? "writable " : "", code);
    PyBuffer_Release(view);
    return -1;
}

static void release(Py_buffer *views, Py_ssize_t nargs)
{
    for (Py_ssize_t i = 0; i < nargs; i++)
        PyBuffer_Release(&views[i]); /* a no-op where no buffer was taken */
}

/* args into a by spec, one letter per argument: 'n' an int64, else the
 * array type code of a buffer's items, followed by '!' when the kernel
 * writes the buffer and '?' when None may pass as NULL; spaces are read
 * past.  On success the buffers are held in views until release(); on
 * failure none is. */
static int take(const char *name, const char *spec, PyObject *const *args, Py_ssize_t nargs,
                Arg *a, Py_buffer *views)
{
    Py_ssize_t want = 0, i = 0;
    for (const char *s = spec; *s; s++)
        want += isalpha(*s) != 0;
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, want, nargs);
        return -1;
    }
    for (const char *s = spec; *s; s++) {
        if (!isalpha(*s))
            continue;
        int out = s[1] == '!', optional = s[1 + out] == '?';
        views[i].obj = NULL;
        if (*s == 'n') {
            a[i].n = PyLong_AsLongLong(args[i]);
            if (a[i].n == -1 && PyErr_Occurred())
                break;
        } else if (optional && args[i] == Py_None) {
            a[i].p = NULL;
        } else if (take_buffer(name, i, args[i], *s, out, &views[i]) < 0) {
            break;
        } else {
            a[i].p = views[i].buf;
        }
        i++;
    }
    if (i == nargs)
        return 0;
    release(views, i);
    return -1;
}

/* per_read * n + plus items of size bytes, uninitialized; NULL with
 * MemoryError when they cannot be had. */
static void *scratch(int64_t n, int64_t per_read, int64_t plus, int64_t size)
{
    void *s = NULL;
    if (n >= 0 && n <= (PY_SSIZE_T_MAX / size - plus) / per_read)
        s = PyMem_Malloc((size_t)((per_read * n + plus) * size));
    if (!s)
        PyErr_NoMemory();
    return s;
}

/* Whether a buffer in view holds times * count + plus items, count being
 * no less than 0; an optional buffer passed as None holds any number.
 * Computed without overflow. */
static int holds(const Py_buffer *view, int64_t count, int64_t times, int64_t plus)
{
    Py_ssize_t len = view->obj ? view->len / view->itemsize : PY_SSIZE_T_MAX;
    return count >= 0 && len >= plus && (len - plus) / times >= count;
}

#define INT(i) a[i].n
#define PTR(i, type) ((type *)a[i].p)
#define I64(i) PTR(i, int64_t)
#define U64(i) PTR(i, uint64_t)
#define U8(i) PTR(i, uint8_t)
/* buffer argument i holds count items */
#define HOLDS(i, count) holds(&views[i], count, 1, 0)

/* covprune_sweep with its store in pieces of their exact sizes, apart
 * from the radix scratch: nseg int32 cells with flat, else the tree's
 * three arrays of 2 * cap items (one block of them all would pass
 * glibc's mmap threshold and be mapped afresh on every call); MemoryError
 * when a piece cannot be had */
static int64_t sweep(const Arg *a, int64_t *s)
{
    int64_t nseg = INT(3), flat = INT(6), result = 0;
    int64_t cap = nseg > 0 ? (int64_t)1 << bit_length(nseg - 1) : 1; /* leaves: 2^j >= nseg */
    void *piece[3] = {NULL, NULL, NULL};
    int got = 0, pieces = flat ? 1 : 3;
    while (got < pieces && (piece[got] = flat ? scratch(nseg, 1, 0, 4) : scratch(cap, 2, 0, 8)))
        got++;
    if (got == pieces)
        result = covprune_sweep(INT(0), I64(1), I64(2), nseg, I64(4), INT(5), flat, I64(7),
                                I64(8), s, piece[0], cap, piece[0], piece[1], piece[2]);
    while (got)
        PyMem_Free(piece[--got]);
    return result;
}

/* py_<name>: takes the arguments by spec, with per_read > 0 allocates
 * scratch s of per_read * n + RADIX items for n the first argument,
 * refuses the call unless it has s and fits, the counts' rule for the
 * buffers' sizes, holds, runs call, which may set result, and returns it
 * as kind says */
#define KERNEL(name, spec, fits, kind, per_read, call)                                        \
    static PyObject *py_##name(PyObject *self, PyObject *const *args, Py_ssize_t nargs)       \
    {                                                                                         \
        Arg a[MAX_ARGS];                                                                      \
        Py_buffer views[MAX_ARGS];                                                            \
        int64_t result = 0, *s = NULL;                                                        \
        (void)self;                                                                           \
        if (take("covprune_" #name, spec, args, nargs, a, views) < 0)                         \
            return NULL;                                                                      \
        if (per_read)                                                                         \
            s = scratch(INT(0), per_read, RADIX, 8);                                          \
        int fit = fits;                                                                       \
        if (fit && (s || !per_read))                                                          \
            call;                                                                             \
        PyMem_Free(s);                                                                        \
        release(views, nargs);                                                                \
        if (PyErr_Occurred()) /* the scratch, or an allocation of the call's, failed */       \
            return NULL;                                                                      \
        if (!fit)                                                                             \
            return PyErr_Format(PyExc_ValueError, "covprune_" #name ": a count out of range " \
                                "or a buffer shorter than the counts imply");                 \
        if (kind == NONE)                                                                     \
            Py_RETURN_NONE;                                                                   \
        if ((kind == STATUS && result < 0) || (kind == RECORDS && result < -2))               \
            return PyErr_Format(PyExc_ValueError,                                             \
                                "covprune_" #name ": an index or a value out of bounds");     \
        return PyLong_FromLongLong(result);                                                   \
    }

KERNEL(parse, "Bnnnn Q!Q!q!q!q!q!", HOLDS(0, INT(1)) && HOLDS(5, INT(4)) && HOLDS(6, INT(4))
       && holds(&views[7], INT(3), 3, 0) && HOLDS(8, 6) && HOLDS(9, INT(4))
       && HOLDS(10, INT(4)), RECORDS, 0,
       result = covprune_parse(U8(0), INT(1), INT(2), INT(3), INT(4), U64(5), U64(6), I64(7),
                               I64(8), I64(9), I64(10)))
KERNEL(profile, "nQQ Q!q!q!q!", INT(0) >= 1 && HOLDS(1, INT(0)) && HOLDS(2, INT(0))
       && holds(&views[3], INT(0), 2, 0) && HOLDS(4, INT(0)) && HOLDS(5, INT(0))
       && holds(&views[6], INT(0), 2, 0), VALUE, 8,
       result = covprune_profile(INT(0), U64(1), U64(2), U64(3), I64(4), I64(5), I64(6), s))
KERNEL(sweep, "nqqnqnn q!q!", HOLDS(1, INT(0)) && HOLDS(2, INT(0)) && HOLDS(4, INT(3))
       && HOLDS(7, INT(0)) && HOLDS(8, 4), STATUS, 5, result = sweep(a, s))
/* n and m bounded by lo and first first, so that m + 1 + n cannot overflow */
KERNEL(network, "nnqq q!q!q!q!", HOLDS(2, INT(0)) && HOLDS(3, INT(0))
       && holds(&views[4], INT(1), 1, 3) && holds(&views[5], INT(1) + 1 + INT(0), 2, 0)
       && holds(&views[6], INT(1) + 1 + INT(0), 2, 0)
       && holds(&views[7], INT(1) + 2, 4, INT(0)), STATUS, 0,
       result = covprune_network(INT(0), INT(1), I64(2), I64(3), I64(4), I64(5), I64(6),
                                 I64(7)))
/* adj, to and res hold an entry per residual arc, first[nv] of them */
KERNEL(max_flow, "nnnqqq q!q!q!q!", holds(&views[3], INT(0), 1, 1) && INT(1) >= 0
       && INT(1) < INT(0) && INT(2) >= 0 && INT(2) < INT(0) && HOLDS(4, I64(3)[INT(0)])
       && HOLDS(5, I64(3)[INT(0)]) && HOLDS(6, I64(3)[INT(0)]) && HOLDS(7, INT(0))
       && HOLDS(8, INT(0)) && HOLDS(9, INT(0)), VALUE, 0,
       result = covprune_max_flow(INT(0), INT(1), INT(2), I64(3), I64(4), I64(5), I64(6),
                                  I64(7), I64(8), I64(9)))
KERNEL(select, "nqn q!", HOLDS(1, INT(0)) && HOLDS(3, INT(0)), VALUE, 0,
       result = covprune_select(INT(0), I64(1), INT(2), I64(3)))
KERNEL(min_max, "nq q!", HOLDS(1, INT(0)) && HOLDS(2, 2), NONE, 0,
       covprune_min_max(INT(0), I64(1), I64(2)))
KERNEL(spans, "nqqn", HOLDS(1, INT(0)) && HOLDS(2, INT(0)), VALUE, 0,
       result = covprune_spans(INT(0), I64(1), I64(2), INT(3)))
KERNEL(unordered, "nQQ", HOLDS(1, INT(0)) && HOLDS(2, INT(0)), VALUE, 0,
       result = covprune_unordered(INT(0), U64(1), U64(2)))
KERNEL(recount, "nq?nqqn q!", HOLDS(1, INT(0)) && HOLDS(3, INT(2)) && HOLDS(4, INT(2))
       && HOLDS(6, INT(5)), STATUS, 0,
       result = covprune_recount(INT(0), I64(1), INT(2), I64(3), I64(4), INT(5), I64(6)))
KERNEL(group, "nqnQQ q!q!Q!Q!", HOLDS(1, INT(0)) && HOLDS(3, INT(0)) && HOLDS(4, INT(0))
       && holds(&views[5], INT(2), 1, 1) && HOLDS(6, INT(0)) && HOLDS(7, INT(0))
       && HOLDS(8, INT(0)), STATUS, 0,
       result = covprune_group(INT(0), I64(1), INT(2), U64(3), U64(4), I64(5), I64(6), U64(7),
                               U64(8)))
KERNEL(runs, "nqqn q!", HOLDS(1, INT(0)) && HOLDS(2, INT(0)) && HOLDS(4, INT(3)), STATUS, 0,
       result = covprune_runs(INT(0), I64(1), I64(2), INT(3), I64(4)))
KERNEL(scatter, "nqnqn B!", HOLDS(1, INT(0)) && HOLDS(3, INT(2)) && HOLDS(5, INT(4)), STATUS,
       0, result = covprune_scatter(INT(0), I64(1), INT(2), I64(3), INT(4), U8(5)))
/* the last of n items a stride apart lies (n - 1) * stride items on */
KERNEL(add, "nq!nn", INT(0) == 0 || (INT(0) > 0 && INT(2) >= 1
       && holds(&views[1], INT(0) - 1, INT(2), 1)), NONE, 0,
       covprune_add(INT(0), I64(1), INT(2), INT(3)))

/* covprune_lines(n, mask, line_at, line_len, size, data): the lines the
 * mask marks, counted, then copied into a new bytearray of that size */
static PyObject *py_lines(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Arg a[MAX_ARGS];
    Py_buffer views[MAX_ARGS];
    PyObject *out = NULL;
    (void)self;
    if (take("covprune_lines", "nBqqnB", args, nargs, a, views) < 0)
        return NULL;
    int fit = HOLDS(1, INT(0)) && HOLDS(2, INT(0)) && HOLDS(3, INT(0)) && HOLDS(5, INT(4));
    int64_t size = fit ? covprune_lines(INT(0), U8(1), I64(2), I64(3), INT(4), U8(5), NULL) : -1;
    if (!fit)
        PyErr_SetString(PyExc_ValueError, "covprune_lines: a count out of range or a buffer "
                                          "shorter than the counts imply");
    else if (size < 0)
        PyErr_SetString(PyExc_ValueError, "covprune_lines: an index or a value out of bounds");
    else if ((out = PyByteArray_FromStringAndSize(NULL, (Py_ssize_t)size)))
        covprune_lines(INT(0), U8(1), I64(2), I64(3), INT(4), U8(5),
                       (uint8_t *)PyByteArray_AS_STRING(out));
    release(views, nargs);
    return out;
}

#define ENTRY(name) {"covprune_" #name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ENTRY(parse),     ENTRY(profile), ENTRY(sweep), ENTRY(network), ENTRY(max_flow),
    ENTRY(select),    ENTRY(min_max), ENTRY(spans), ENTRY(recount), ENTRY(unordered),
    ENTRY(group),     ENTRY(runs),    ENTRY(scatter), ENTRY(lines), ENTRY(add),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", "covprune's compiled kernels.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
