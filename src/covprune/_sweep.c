/* covprune_sweep: approx.approx_prune's sweep and refill in one call.
 * approx.py states the rule, its guarantee and the flat rule that picks
 * the store.
 *
 * Both loops visit the reads in the order of covprune_order (_profile.c,
 * which _module.c includes first), by (lo, hi, i), and read and shift
 * the segment coverage through one Store, which keeps it either
 *  - in a lazy min/max tree, O(log nseg) nodes per read.  CoverageTree
 *    (coverage_tree.py) is its Python reference: the same perfect binary
 *    tree, the same lazy balances, the same nodes pushed down and
 *    repaired along the two boundary paths, hence the same decisions and
 *    the same nodes_touched;
 *  - or, with flat, in int32 cells: the sweep reads a span's cells once,
 *    in a loop the compiler vectorizes, the refill reads them up to its
 *    first cell at k, and each deletion or re-add shifts them once.
 * Both make the same decisions on the same values, from segment indices
 * and coverage counts only, never coordinates.
 */

#include <stdint.h>

#define INF ((int64_t)1 << 62)

static int64_t bit_length(int64_t x)
{
    return x ? 64 - __builtin_clzll((uint64_t)x) : 0;
}

/* The segment coverage as the sweep keeps it: with flat, in the int32
 * cells val; else in the tree mn/mx/bal of cap leaves.  work counts the
 * tree's nodes touched, or the cells read, lowered or raised. */
typedef struct {
    int64_t flat, cap, work;
    int64_t *mn, *mx, *bal;
    int32_t *val;
} Store;

/* move internal node v's pending balance onto its two children, as
 * CoverageTree.range_query does along its boundary paths */
static void push(int64_t v, int64_t *mn, int64_t *mx, int64_t *bal)
{
    int64_t b = bal[v];
    if (b) {
        bal[2 * v] += b;
        bal[2 * v + 1] += b;
        mn[v] += b;
        mx[v] += b;
        bal[v] = 0;
    }
}

/* recompute node v's min/max from its children, balances included */
static void repair(int64_t v, int64_t *mn, int64_t *mx, const int64_t *bal)
{
    int64_t a = mn[2 * v] + bal[2 * v], b = mn[2 * v + 1] + bal[2 * v + 1];
    mn[v] = a < b ? a : b;
    a = mx[2 * v] + bal[2 * v];
    b = mx[2 * v + 1] + bal[2 * v + 1];
    mx[v] = a > b ? a : b;
}

/* range_query over leaves l0..r0: push the balances down both boundary
 * paths, their shared top once, then take the min and max of the
 * canonical nodes into *qmn and *qmx; returns the nodes touched */
static int64_t query(Store *c, int64_t l0, int64_t r0, int64_t *qmn, int64_t *qmx)
{
    int64_t *mn = c->mn, *mx = c->mx, *bal = c->bal, touched = 0, lo = INF, hi = -INF;
    for (int64_t h = bit_length(c->cap) - 1; h > 0; h--, touched++)
        push(l0 >> h, mn, mx, bal);
    for (int64_t h = bit_length(l0 ^ r0) - 1; h > 0; h--, touched++)
        push(r0 >> h, mn, mx, bal);
    for (int64_t l = l0, r = r0 + 1; l < r; l >>= 1, r >>= 1) {
        if (l & 1) {
            if (mn[l] + bal[l] < lo) lo = mn[l] + bal[l];
            if (mx[l] + bal[l] > hi) hi = mx[l] + bal[l];
            l++;
            touched++;
        }
        if (r & 1) {
            r--;
            if (mn[r] + bal[r] < lo) lo = mn[r] + bal[r];
            if (mx[r] + bal[r] > hi) hi = mx[r] + bal[r];
            touched++;
        }
    }
    *qmn = lo;
    *qmx = hi;
    return touched;
}

/* range_decrement (delta -1) or range_increment (delta +1) over leaves
 * l0..r0: shift the canonical nodes' balances, then repair both boundary
 * paths, merging at the LCA; returns the nodes touched */
static int64_t shift(Store *c, int64_t l0, int64_t r0, int64_t delta)
{
    int64_t *mn = c->mn, *mx = c->mx, *bal = c->bal, touched = 0;
    for (int64_t l = l0, r = r0 + 1; l < r; l >>= 1, r >>= 1) {
        if (l & 1) {
            bal[l++] += delta;
            touched++;
        }
        if (r & 1) {
            bal[--r] += delta;
            touched++;
        }
    }
    int64_t v = l0 >> 1, w = r0 >> 1;
    for (; v != w; v >>= 1, w >>= 1, touched += 2) {
        repair(v, mn, mx, bal);
        repair(w, mn, mx, bal);
    }
    for (; v; v >>= 1, touched++)
        repair(v, mn, mx, bal);
    return touched;
}

/* the min and max of segments a..b-1 into *qmn and *qmx; the flat min
 * and max are branch-free, so that the compiler can vectorize the scan */
static void span(Store *c, int64_t a, int64_t b, int64_t *qmn, int64_t *qmx)
{
    if (!c->flat) {
        c->work += query(c, c->cap + a, c->cap + b - 1, qmn, qmx);
        return;
    }
    int32_t lo = INT32_MAX, hi = INT32_MIN;
    for (int64_t s = a; s < b; s++) {
        int32_t v = c->val[s];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    c->work += b - a;
    *qmn = lo;
    *qmx = hi;
}

/* whether every segment a..b-1 is below k; the flat store reads the
 * cells up to its first at k or above, that one included */
static int below(Store *c, int64_t a, int64_t b, int64_t k)
{
    int64_t s = a, qmn, qmx;
    if (!c->flat) {
        span(c, a, b, &qmn, &qmx);
        return qmx < k;
    }
    while (s < b && c->val[s] < k)
        s++;
    c->work += s - a + (s < b);
    return s == b;
}

/* segments a..b-1 lowered (delta -1) or raised (delta +1) */
static void lift(Store *c, int64_t a, int64_t b, int64_t delta)
{
    if (!c->flat) {
        c->work += shift(c, c->cap + a, c->cap + b - 1, delta);
        return;
    }
    for (int64_t s = a; s < b; s++)
        c->val[s] += (int32_t)delta;
    c->work += b - a;
}

/* Sweep and refill the n reads over the segment coverage cov[0..nseg),
 * kept in val (nseg cells) with flat, else in mn/mx/bal (2 * cap items
 * each, cap the least power of 2 >= nseg); scratch has 5n + RADIX items.
 * Writes the kept reads, rising, to kept and returns their number, and
 * counts gets {nodes_touched or segments_scanned, candidates,
 * blocked_crucial, refilled}.  Before it writes either, returns -1 when
 * a read's span leaves [0, nseg) and, with flat, -2 when a coverage
 * count is outside [0, 2^31).  No cell overflows: a read is deleted only
 * under a cell above k, so with k >= 2^31 - 1 none is, and a refill
 * lifts cells below k to at most k. */
static int64_t covprune_sweep(int64_t n, const int64_t *lo, const int64_t *hi, int64_t nseg,
                              const int64_t *cov, int64_t k, int64_t flat, int64_t *kept,
                              int64_t *counts, int64_t *scratch, int32_t *val, int64_t cap,
                              int64_t *mn, int64_t *mx, int64_t *bal)
{
    for (int64_t i = 0; i < n; i++)
        if (lo[i] < 0 || lo[i] >= hi[i] || hi[i] > nseg)
            return -1;
    Store c = {flat, cap, 0, mn, mx, bal, val};
    if (flat) {
        for (int64_t s = 0; s < nseg; s++) {
            if (cov[s] < 0 || cov[s] > INT32_MAX)
                return -2;
            val[s] = (int32_t)cov[s];
        }
    } else {
        for (int64_t v = 1; v < 2 * cap; v++) {
            mn[v] = INF;
            mx[v] = -INF;
            bal[v] = 0;
        }
        for (int64_t j = 0; j < nseg; j++)
            mn[cap + j] = mx[cap + j] = cov[j];
        for (int64_t v = cap - 1; v > 0; v--)
            repair(v, mn, mx, bal);
    }

    const int64_t *order = covprune_order(n, lo, hi, nseg, scratch);
    int64_t half = k / 2, candidates = 0, blocked = 0, refilled = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t i = order ? order[j] : j, qmn, qmx;
        kept[i] = 0; /* 1 while the read is deleted */
        span(&c, lo[i], hi[i], &qmn, &qmx);
        if (qmx <= k)
            continue;
        candidates++;
        if (qmn <= half) {
            blocked++;
            continue;
        }
        kept[i] = 1;
        lift(&c, lo[i], hi[i], -1);
    }
    for (int64_t j = 0; j < n; j++) {
        int64_t i = order ? order[j] : j;
        if (!kept[i] || !below(&c, lo[i], hi[i], k))
            continue;
        kept[i] = 0;
        refilled++;
        lift(&c, lo[i], hi[i], 1);
    }
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) { /* branch-free: the mask is mixed */
        int64_t deleted = kept[i];
        kept[m] = i;
        m += !deleted;
    }
    counts[0] = c.work;
    counts[1] = candidates;
    counts[2] = blocked;
    counts[3] = refilled;
    return m;
}
