/* The Python face of the kernels: the extension module _kernels, one
 * function per covprune_* kernel of the other files, under the kernel's
 * name and taking its arguments in its order.
 *
 * take() checks every argument before a kernel runs.  An integer is an
 * int64; a pointer is a C-contiguous buffer of the declared item type,
 * array.array, memoryview or numpy array alike, and a buffer the kernel
 * writes must be writable.  Anything else, a wrong argument count
 * included, raises TypeError (OverflowError for an integer beyond
 * int64) and leaves every buffer untouched.  A kernel that checks its
 * indices returns a negative status, raised here as ValueError; the
 * others' results, parse's -1 and -2 among them, go back to the caller.
 * The radix scratch of profile and order is allocated here and left
 * uninitialized, so the passes a sorted column skips never touch it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <ctype.h>
#include <stdint.h>
#include <string.h>

int64_t covprune_parse(const uint8_t *data, int64_t size, int64_t fields, int64_t max_runs,
                       uint64_t *starts, uint64_t *ends, int64_t *runs, int64_t *nruns,
                       int64_t *line_at, int64_t *line_len);
int64_t covprune_profile(int64_t n, const uint64_t *starts, const uint64_t *ends,
                         uint64_t *delimiters, int64_t *lo, int64_t *hi,
                         int64_t *segment_cov, int64_t *scratch);
void covprune_order(int64_t n, const int64_t *lo, const int64_t *hi, int64_t nseg,
                    int64_t *order, int64_t *scratch);
int64_t covprune_sweep(int64_t nseg, int64_t cap, const int64_t *cov, int64_t n,
                       const int64_t *order, const int64_t *lo, const int64_t *hi, int64_t k,
                       int64_t *mn, int64_t *mx, int64_t *bal, int64_t *deleted,
                       int64_t *counts);
int64_t covprune_flat_sweep(int64_t nseg, const int64_t *cov, int32_t *val, int64_t n,
                            const int64_t *order, const int64_t *lo, const int64_t *hi,
                            int64_t k, int64_t *deleted, int64_t *counts);
int64_t covprune_network(int64_t n, int64_t m, const int64_t *lo, const int64_t *hi,
                         int64_t *first, int64_t *adj, int64_t *to, int64_t *scratch);
int64_t covprune_max_flow(int64_t nv, int64_t source, int64_t sink, const int64_t *first,
                          const int64_t *adj, const int64_t *to, int64_t *res,
                          int64_t *parent_arc, int64_t *stack, int64_t *next_arc);
int64_t covprune_select(int64_t n, const int64_t *values, int64_t want, int64_t *out);
void covprune_min_max(int64_t n, const int64_t *values, int64_t *out);
int64_t covprune_spans(int64_t n, const int64_t *lo, const int64_t *hi, int64_t bound);
int64_t covprune_unordered(int64_t n, const uint64_t *starts, const uint64_t *ends);
int64_t covprune_recount(int64_t nidx, const int64_t *idx, int64_t n, const int64_t *lo,
                         const int64_t *hi, int64_t m, int64_t *cov);
int64_t covprune_group(int64_t n, const int64_t *code, int64_t ngroups,
                       const uint64_t *starts, const uint64_t *ends, int64_t *first,
                       int64_t *order, uint64_t *group_starts, uint64_t *group_ends);
int64_t covprune_runs(int64_t nruns, const int64_t *at, const int64_t *values, int64_t n,
                      int64_t *out);
int64_t covprune_scatter(int64_t nidx, const int64_t *idx, int64_t nmap, const int64_t *map,
                         int64_t m, uint8_t *mask);
int64_t covprune_lines(int64_t n, const uint8_t *mask, const int64_t *line_at,
                       const int64_t *line_len, int64_t size, const uint8_t *data,
                       uint8_t *out);
void covprune_add(int64_t n, int64_t *values, int64_t stride, int64_t delta);

#define MAX_ARGS 13
#define RADIX 2048 /* _profile.c's digit count */

/* what a kernel's result means */
enum { NONE, VALUE, STATUS };

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

/* Radix scratch of per_read * n + RADIX items, uninitialized; NULL with
 * MemoryError when it cannot be had. */
static int64_t *scratch(int64_t n, int64_t per_read)
{
    int64_t *s = NULL;
    if (n >= 0 && n <= (PY_SSIZE_T_MAX / 8 - RADIX) / per_read)
        s = PyMem_Malloc((size_t)(per_read * n + RADIX) * sizeof *s);
    if (!s)
        PyErr_NoMemory();
    return s;
}

#define INT(i) a[i].n
#define PTR(i, type) ((type *)a[i].p)
#define I64(i) PTR(i, int64_t)
#define U64(i) PTR(i, uint64_t)
#define U8(i) PTR(i, uint8_t)

/* py_<name>: takes the arguments by spec, with per_read > 0 allocates
 * scratch s of per_read * n + RADIX items for n the first argument,
 * runs call, which may set result, and returns it as kind says */
#define KERNEL(name, spec, kind, per_read, call)                                              \
    static PyObject *py_##name(PyObject *self, PyObject *const *args, Py_ssize_t nargs)       \
    {                                                                                         \
        Arg a[MAX_ARGS];                                                                      \
        Py_buffer views[MAX_ARGS];                                                            \
        int64_t result = 0, *s = NULL;                                                        \
        (void)self;                                                                           \
        if (take("covprune_" #name, spec, args, nargs, a, views) < 0)                         \
            return NULL;                                                                      \
        if (per_read && !(s = scratch(INT(0), per_read))) {                                   \
            release(views, nargs);                                                            \
            return NULL;                                                                      \
        }                                                                                     \
        call;                                                                                 \
        PyMem_Free(s);                                                                        \
        release(views, nargs);                                                                \
        if (kind == NONE)                                                                     \
            Py_RETURN_NONE;                                                                   \
        if (kind == STATUS && result < 0)                                                     \
            return PyErr_Format(PyExc_ValueError,                                             \
                                "covprune_" #name ": an index or a value out of bounds");     \
        return PyLong_FromLongLong(result);                                                   \
    }

KERNEL(parse, "Bnnn Q!Q!q!q!q!q!", VALUE, 0,
       result = covprune_parse(U8(0), INT(1), INT(2), INT(3), U64(4), U64(5), I64(6), I64(7),
                               I64(8), I64(9)))
KERNEL(profile, "nQQ Q!q!q!q!", VALUE, 8,
       result = covprune_profile(INT(0), U64(1), U64(2), U64(3), I64(4), I64(5), I64(6), s))
KERNEL(order, "nqqn q!", NONE, 5, covprune_order(INT(0), I64(1), I64(2), INT(3), I64(4), s))
KERNEL(sweep, "nnqnqqqn q!q!q!q!q!", STATUS, 0,
       result = covprune_sweep(INT(0), INT(1), I64(2), INT(3), I64(4), I64(5), I64(6), INT(7),
                               I64(8), I64(9), I64(10), I64(11), I64(12)))
KERNEL(flat_sweep, "nqi!nqqqn q!q!", STATUS, 0,
       result = covprune_flat_sweep(INT(0), I64(1), PTR(2, int32_t), INT(3), I64(4), I64(5),
                                    I64(6), INT(7), I64(8), I64(9)))
KERNEL(network, "nnqq q!q!q!q!", STATUS, 0,
       result = covprune_network(INT(0), INT(1), I64(2), I64(3), I64(4), I64(5), I64(6),
                                 I64(7)))
KERNEL(max_flow, "nnnqqq q!q!q!q!", VALUE, 0,
       result = covprune_max_flow(INT(0), INT(1), INT(2), I64(3), I64(4), I64(5), I64(6),
                                  I64(7), I64(8), I64(9)))
KERNEL(select, "nqn q!", VALUE, 0, result = covprune_select(INT(0), I64(1), INT(2), I64(3)))
KERNEL(min_max, "nq q!", NONE, 0, covprune_min_max(INT(0), I64(1), I64(2)))
KERNEL(spans, "nqqn", VALUE, 0, result = covprune_spans(INT(0), I64(1), I64(2), INT(3)))
KERNEL(unordered, "nQQ", VALUE, 0, result = covprune_unordered(INT(0), U64(1), U64(2)))
KERNEL(recount, "nq?nqqn q!", STATUS, 0,
       result = covprune_recount(INT(0), I64(1), INT(2), I64(3), I64(4), INT(5), I64(6)))
KERNEL(group, "nqnQQ q!q!Q!Q!", STATUS, 0,
       result = covprune_group(INT(0), I64(1), INT(2), U64(3), U64(4), I64(5), I64(6), U64(7),
                               U64(8)))
KERNEL(runs, "nqqn q!", STATUS, 0,
       result = covprune_runs(INT(0), I64(1), I64(2), INT(3), I64(4)))
KERNEL(scatter, "nqnqn B!", STATUS, 0,
       result = covprune_scatter(INT(0), I64(1), INT(2), I64(3), INT(4), U8(5)))
KERNEL(lines, "nBqqnB B!?", STATUS, 0,
       result = covprune_lines(INT(0), U8(1), I64(2), I64(3), INT(4), U8(5), U8(6)))
KERNEL(add, "nq!nn", NONE, 0, covprune_add(INT(0), I64(1), INT(2), INT(3)))

#define ENTRY(name) {"covprune_" #name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ENTRY(parse),   ENTRY(profile),   ENTRY(order),   ENTRY(sweep),   ENTRY(flat_sweep),
    ENTRY(network), ENTRY(max_flow),  ENTRY(select),  ENTRY(min_max), ENTRY(spans),
    ENTRY(recount), ENTRY(unordered), ENTRY(group),   ENTRY(runs),    ENTRY(scatter),
    ENTRY(lines),   ENTRY(add),       {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", "covprune's compiled kernels.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
