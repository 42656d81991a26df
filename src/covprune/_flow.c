/* The exact solver's two kernels: covprune_network, the chain network
 * flow.build_network lays out (its own comment is at the end of this
 * file), and the augmenting-path max-flow that flow.max_flow_augmenting
 * calls.
 *
 * The max-flow holds one int64 flow per logical arc, nothing else: an
 * arc's capacity follows from (k, t) and its index, and its two residual
 * arcs, 2a along logical arc a and 2a+1 against it, from the capacity
 * and the flow; its head, from its index and the chain columns lo and
 * hi that the network was laid out from.  tests/reference_kernels.py
 * holds the line-for-line Python reference of the max-flow on the same
 * arrays: the same adjacency order, the same first-found depth-first
 * path, hence the same flow and the same augmentation count.  The
 * adjacency comes in CSR form: the arcs leaving vertex u are
 * adj[first[u]..first[u+1]), listed by falling head, so the search tries
 * the arc that reaches farthest along the chain first.
 * The layout checks every read's range before it writes anything; the
 * search checks each index it follows as it reads it.
 */

#include <stdint.h>
#include <string.h>

/* The capacity of logical arc a in the (k, t) chain network on nv
 * vertices: a below nv - 1 is backbone arc a, of capacity k at the two
 * ends and k - t inside, and the rest are reads, of capacity 1. */
static inline int64_t capacity(int64_t a, int64_t nv, int64_t k, int64_t t)
{
    return a >= nv - 1 ? 1 : a == 0 || a == nv - 2 ? k : k - t;
}

/* The residual capacity of residual arc r carrying flow: arc 2a has the
 * capacity of logical arc a left, arc 2a + 1 its flow, which it can
 * cancel. */
static inline int64_t residual(int64_t r, int64_t nv, int64_t k, int64_t t, const int64_t *flow)
{
    int64_t a = r >> 1;
    return r & 1 ? flow[a] : capacity(a, nv, k, t) - flow[a];
}

/* The head of residual arc r: backbone arc j runs from j to j + 1, the
 * arc of chain place p from lo[p] + 1 to hi[p] + 1, arc 2a + 1 back along
 * arc 2a.  Unsigned, so that a place off the chain gives one past nv. */
static inline uint64_t head(int64_t r, int64_t nv, const int64_t *lo, const int64_t *hi)
{
    int64_t a = r >> 1, p = a - (nv - 1);
    if (p < 0)
        return (uint64_t)(a + !(r & 1));
    return (uint64_t)(r & 1 ? lo[p] : hi[p]) + 1;
}

/* One depth-first augmenting path from the source, vertex 0, to the
 * sink, vertex nv - 1; returns the amount pushed, 0 when the sink cannot
 * be reached, and -1 when an index it follows leaves its buffer: a
 * vertex's arc range outside [0, first[nv]], an arc at or past first[nv]
 * or a head at or past nv (each compared unsigned, so that a negative
 * one is refused too); lo and hi hold the first[nv] / 2 - (nv - 1)
 * interval arcs' places.  stack holds the path being grown and next_arc
 * each vertex's next untried arc.  A vertex is marked in parent_arc when
 * it is pushed and never pushed again, so the stack stays within nv
 * entries, and a failing search leaves marked exactly the vertices
 * reachable from the source. */
static int64_t dfs_augment(int64_t nv, const int64_t *first, const int64_t *adj,
                           const int64_t *lo, const int64_t *hi, int64_t k, int64_t t,
                           int64_t *flow, int64_t *parent_arc, int64_t *stack, int64_t *next_arc)
{
    int64_t sink = nv - 1, arcs = first[nv];
    for (int64_t v = 0; v < nv; v++)
        parent_arc[v] = -1;
    parent_arc[0] = -2;
    int64_t depth = 0;
    stack[0] = 0;
    next_arc[0] = first[0];
    while (depth >= 0 && parent_arc[sink] == -1) {
        int64_t u = stack[depth], p = next_arc[u], end = first[u + 1];
        if (p < 0 || p > end || end > arcs)
            return -1;
        for (; p < end; p++) {
            int64_t a = adj[p];
            if ((uint64_t)a >= (uint64_t)arcs || head(a, nv, lo, hi) >= (uint64_t)nv)
                return -1;
            if (parent_arc[head(a, nv, lo, hi)] == -1 && residual(a, nv, k, t, flow) > 0)
                break;
        }
        if (p == end) {
            depth--; /* every arc of u tried: back up */
        } else {
            int64_t a = adj[p], v = (int64_t)head(a, nv, lo, hi);
            next_arc[u] = p + 1;
            parent_arc[v] = a;
            stack[++depth] = v;
            next_arc[v] = first[v];
        }
    }
    if (parent_arc[sink] == -1)
        return 0;

    /* the stack runs from the source to the sink: it is the path */
    int64_t bottleneck = residual(parent_arc[sink], nv, k, t, flow);
    for (int64_t i = 1; i < depth; i++) {
        int64_t left = residual(parent_arc[stack[i]], nv, k, t, flow);
        if (left < bottleneck)
            bottleneck = left;
    }
    for (int64_t i = 1; i <= depth; i++) {
        int64_t a = parent_arc[stack[i]];
        flow[a >> 1] += a & 1 ? -bottleneck : bottleneck;
    }
    return bottleneck;
}

/* Augment the feasible flow of the (k, t) network, one item per logical
 * arc, first[nv] / 2 of them, from vertex 0 to vertex nv - 1, nv >= 2,
 * to a maximum flow, in place; returns the number of augmenting paths,
 * or -1, before it writes anything, when a flow item lies outside [0,
 * its arc's capacity], and later when the search meets an index out of
 * bounds or the paths exceed k, which no chain network reaches: the
 * source's one arc has capacity k, and each path adds at least 1.
 * parent_arc, of nv entries, is left holding the last, failing search's
 * marks; scratch, 2nv entries, holds the search's stack and next_arc. */
static int64_t covprune_max_flow(int64_t nv, const int64_t *first, const int64_t *adj,
                                 const int64_t *lo, const int64_t *hi, int64_t k, int64_t t,
                                 int64_t *flow, int64_t *parent_arc, int64_t *scratch)
{
    for (int64_t a = 0; a < first[nv] / 2; a++)
        if (flow[a] < 0 || flow[a] > capacity(a, nv, k, t))
            return -1;
    int64_t augmentations = 0, pushed;
    while ((pushed = dfs_augment(nv, first, adj, lo, hi, k, t, flow, parent_arc,
                                 scratch, scratch + nv)) > 0)
        if (++augmentations > k)
            return -1;
    return pushed < 0 ? -1 : augmentations;
}

/* The chain network that flow.build_network lays out over the reads in
 * chain order, place p spanning delimiter indices [lo[p], hi[p]): writes
 * the CSR adjacency first/adj, interval arc m + 1 + p for place p, and
 * no heads, which the max-flow derives from lo and hi.  The order is that
 * of one stable argsort of every arc by the vertex it leaves, then by
 * falling head (tests/reference_kernels.py's reference), and here it
 * follows from the chain's structure.  The arcs leaving vertex u are the
 * interval arcs out of u by falling hi, the backbone arc u -> u + 1, the
 * single-segment interval arcs out of u, the backbone arc u -> u - 1,
 * then the reverse interval arcs into u by falling lo, ties going by arc
 * index as in the stable sort.  So with lo and hi in chain order, by
 * (lo, hi, p), the runs of equal (lo, hi) taken from the last, each from
 * its first place, give both lists in one pass, with no sort, in
 * O(n + m).  scratch holds 3(m + 2) entries.  Returns 0, or -1, before
 * it writes anything, unless 0 <= lo[p] < hi[p] <= m - 1 for every read,
 * so that every head lies on the chain, and (lo, hi) never falls from
 * one place to the next, so that no slot is laid twice. */
static int64_t covprune_network(int64_t n, int64_t m, const int64_t *lo, const int64_t *hi,
                                int64_t *first, int64_t *adj, int64_t *scratch)
{
    for (int64_t p = 0; p < n; p++)
        if (lo[p] < 0 || lo[p] >= hi[p] || hi[p] > m - 1
            || (p && (lo[p - 1] > lo[p] || (lo[p - 1] == lo[p] && hi[p - 1] > hi[p]))))
            return -1;
    int64_t nb = m + 1, nv = m + 2;
    /* per vertex: interval arcs out, those spanning two or more segments,
     * interval arcs in; then a cursor for the arcs out and one for those
     * in take the place of the last two, vertex by vertex as the backbone
     * arcs are laid: all but the sink, m + 1, where no read's arc ends. */
    int64_t *out = scratch;
    memset(out, 0, 3 * nv * sizeof *out);
    int64_t *multi = out + nv, *in = multi + nv, *ahead = multi, *back = in;
    for (int64_t p = 0; p < n; p++) {
        out[lo[p] + 1]++;
        multi[lo[p] + 1] += hi[p] > lo[p] + 1;
        in[hi[p] + 1]++;
    }
    first[0] = 0;
    for (int64_t u = 0; u < nv; u++)
        first[u + 1] = first[u] + (u <= m) + (u >= 1) + out[u] + in[u];
    for (int64_t j = 0; j < nb; j++) {
        adj[first[j] + multi[j]] = 2 * j;
        adj[first[j + 1] + (j + 1 <= m) + out[j + 1]] = 2 * j + 1;
        ahead[j] = first[j];
        back[j] = first[j] + out[j] + 2; /* after both backbone arcs */
    }
    /* a single-segment arc goes one slot on, after the backbone arc */
    for (int64_t end = n, start; end > 0; end = start) {
        for (start = end - 1; start > 0 && lo[start - 1] == lo[end - 1]
                              && hi[start - 1] == hi[end - 1]; start--)
            ;
        for (int64_t p = start; p < end; p++) {
            adj[ahead[lo[p] + 1]++ + (hi[p] == lo[p] + 1)] = 2 * (nb + p);
            adj[back[hi[p] + 1]++] = 2 * (nb + p) + 1;
        }
    }
    return 0;
}
