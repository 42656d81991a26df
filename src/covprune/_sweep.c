/* The two ways approx.approx_prune runs its start-order sweep.
 *
 * covprune_sweep keeps the segment coverage in a lazy min/max tree:
 * O(log nseg) nodes per read, whatever its span.  CoverageTree
 * (coverage_tree.py) is its Python reference: the same perfect binary
 * tree, the same lazy balances, the same nodes pushed down and repaired
 * along the two boundary paths, hence the same decisions and the same
 * nodes_touched.
 *
 * covprune_flat_sweep scans a plain int32 copy of the segment coverage:
 * one cell per segment of the read's span, read once and, on a deletion,
 * decremented once, in loops the compiler vectorizes.  approx_prune
 * takes it only when the spans sum to at most 40 * n * bit_length(nseg)
 * and the coverage is below 2^31, so it too stays O(n log n), and on
 * short reads it is cheaper.
 *
 * Both make the same decisions on the same values.  They visit reads
 * order[0], order[1], ..., see segment indices and coverage counts
 * only, never coordinates, and set deleted[i] to 1 for each read i they
 * delete.  Each returns -1, before it changes anything, when an order
 * index leaves [0, n) or a read's span leaves [0, nseg).
 */

#include <stdint.h>

#define INF ((int64_t)1 << 62)

static int64_t bit_length(int64_t x)
{
    int64_t n = 0;
    while (x) {
        x >>= 1;
        n++;
    }
    return n;
}

/* 0 when every order[j] lies in [0, n) and each read spans a nonempty
 * run of the nseg segments, else -1 */
static int64_t check(int64_t n, const int64_t *order, const int64_t *lo, const int64_t *hi,
                     int64_t nseg)
{
    for (int64_t j = 0; j < n; j++) {
        int64_t i = order[j];
        if (i < 0 || i >= n || lo[i] < 0 || lo[i] >= hi[i] || hi[i] > nseg)
            return -1;
    }
    return 0;
}

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

/* Build the tree over cov[0..nseg) into mn/mx/bal (each 2 * cap long),
 * then visit the reads in order; counts receives {nodes_touched,
 * candidates, blocked_crucial}. */
int64_t covprune_sweep(int64_t nseg, int64_t cap, const int64_t *cov,
                       int64_t n, const int64_t *order, const int64_t *lo, const int64_t *hi,
                       int64_t k, int64_t *mn, int64_t *mx, int64_t *bal,
                       int64_t *deleted, int64_t *counts)
{
    if (check(n, order, lo, hi, nseg) < 0)
        return -1;
    int64_t depth = bit_length(cap) - 1, half = k / 2;
    int64_t touched = 0, candidates = 0, blocked = 0;

    for (int64_t v = 1; v < 2 * cap; v++) {
        mn[v] = INF;
        mx[v] = -INF;
        bal[v] = 0;
    }
    for (int64_t j = 0; j < nseg; j++)
        mn[cap + j] = mx[cap + j] = cov[j];
    for (int64_t v = cap - 1; v > 0; v--)
        repair(v, mn, mx, bal);

    for (int64_t j = 0; j < n; j++) {
        int64_t i = order[j], l0 = cap + lo[i], r0 = cap + hi[i] - 1;
        int64_t split = bit_length(l0 ^ r0);

        /* range_query: push balances down both boundary paths, shared top once */
        for (int64_t h = depth; h > 0; h--, touched++)
            push(l0 >> h, mn, mx, bal);
        for (int64_t h = split - 1; h > 0; h--, touched++)
            push(r0 >> h, mn, mx, bal);
        int64_t qmn = INF, qmx = -INF;
        for (int64_t l = l0, r = r0 + 1; l < r; l >>= 1, r >>= 1) {
            if (l & 1) {
                if (mn[l] + bal[l] < qmn) qmn = mn[l] + bal[l];
                if (mx[l] + bal[l] > qmx) qmx = mx[l] + bal[l];
                l++;
                touched++;
            }
            if (r & 1) {
                r--;
                if (mn[r] + bal[r] < qmn) qmn = mn[r] + bal[r];
                if (mx[r] + bal[r] > qmx) qmx = mx[r] + bal[r];
                touched++;
            }
        }

        if (qmx <= k)
            continue;
        candidates++;
        if (qmn <= half) {
            blocked++;
            continue;
        }

        /* range_decrement, then repair both boundary paths, merging at the LCA */
        deleted[i] = 1;
        for (int64_t l = l0, r = r0 + 1; l < r; l >>= 1, r >>= 1) {
            if (l & 1) {
                bal[l++] -= 1;
                touched++;
            }
            if (r & 1) {
                bal[--r] -= 1;
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
    }
    counts[0] = touched;
    counts[1] = candidates;
    counts[2] = blocked;
    return 0;
}

/* The same sweep over val[0..nseg), an int32 copy of the segment
 * coverage cov that it lowers in place; -2 when a coverage count is
 * outside [0, 2^31).  The min and max are branch-free, so that the
 * compiler can vectorize the scan.  counts receives {segments_scanned,
 * candidates, blocked_crucial}, where a segment is scanned once per read
 * whose span holds it and once more per deletion. */
int64_t covprune_flat_sweep(int64_t nseg, const int64_t *cov, int32_t *val, int64_t n,
                            const int64_t *order, const int64_t *lo, const int64_t *hi,
                            int64_t k, int64_t *deleted, int64_t *counts)
{
    if (check(n, order, lo, hi, nseg) < 0)
        return -1;
    for (int64_t s = 0; s < nseg; s++) {
        if (cov[s] < 0 || cov[s] > INT32_MAX)
            return -2;
        val[s] = (int32_t)cov[s];
    }
    int64_t half = k / 2, scanned = 0, candidates = 0, blocked = 0;

    for (int64_t j = 0; j < n; j++) {
        int64_t i = order[j], a = lo[i], b = hi[i];
        int32_t qmn = INT32_MAX, qmx = INT32_MIN;
        for (int64_t s = a; s < b; s++) {
            int32_t v = val[s];
            qmn = v < qmn ? v : qmn;
            qmx = v > qmx ? v : qmx;
        }
        scanned += b - a;
        if (qmx <= k)
            continue;
        candidates++;
        if (qmn <= half) {
            blocked++;
            continue;
        }
        deleted[i] = 1;
        for (int64_t s = a; s < b; s++)
            val[s] -= 1;
        scanned += b - a;
    }
    counts[0] = scanned;
    counts[1] = candidates;
    counts[2] = blocked;
    return 0;
}
