/* The exact solver's two kernels: covprune_network, the chain network
 * flow.build_network lays out (its own comment is at the end of this
 * file), and the augmenting-path max-flow that flow.max_flow_augmenting
 * calls.
 *
 * tests/reference_kernels.py holds the line-for-line Python reference
 * of the max-flow on the same arrays: the same paired arcs (2a forward,
 * 2a+1 reverse), the same adjacency order, the same first-found
 * depth-first path, hence the same flow and the same augmentation
 * count.  The adjacency comes in CSR form: the arcs leaving vertex u are
 * adj[first[u]..first[u+1]), listed by falling head, so the search tries
 * the arc that reaches farthest along the chain first.
 * flow.build_network validates every read's range before the layout,
 * which checks its own arcs after.
 */

#include <stdint.h>
#include <string.h>

/* One depth-first augmenting path from source to sink; returns the
 * amount pushed, 0 when the sink cannot be reached.  stack holds the
 * path being grown and next_arc each vertex's next untried arc.  A
 * vertex is marked in parent_arc when it is pushed and never pushed
 * again, so the stack stays within nv entries, and a failing search
 * leaves marked exactly the vertices reachable from the source. */
static int64_t dfs_augment(int64_t nv, int64_t source, int64_t sink,
                           const int64_t *first, const int64_t *adj, const int64_t *to,
                           int64_t *res, int64_t *parent_arc, int64_t *stack,
                           int64_t *next_arc)
{
    for (int64_t v = 0; v < nv; v++)
        parent_arc[v] = -1;
    parent_arc[source] = -2;
    int64_t depth = 0;
    stack[0] = source;
    next_arc[source] = first[source];
    while (depth >= 0 && parent_arc[sink] == -1) {
        int64_t u = stack[depth], p = next_arc[u], end = first[u + 1];
        while (p < end && (parent_arc[to[adj[p]]] != -1 || res[adj[p]] <= 0))
            p++;
        if (p == end) {
            depth--; /* every arc of u tried: back up */
        } else {
            int64_t a = adj[p], v = to[a];
            next_arc[u] = p + 1;
            parent_arc[v] = a;
            stack[++depth] = v;
            next_arc[v] = first[v];
        }
    }
    if (parent_arc[sink] == -1)
        return 0;

    /* the stack runs from the source to the sink: it is the path */
    int64_t bottleneck = res[parent_arc[sink]];
    for (int64_t i = 1; i < depth; i++)
        if (res[parent_arc[stack[i]]] < bottleneck)
            bottleneck = res[parent_arc[stack[i]]];
    for (int64_t i = 1; i <= depth; i++) {
        int64_t a = parent_arc[stack[i]];
        res[a] -= bottleneck;
        res[a ^ 1] += bottleneck;
    }
    return bottleneck;
}

/* Augment the feasible flow held in the residual capacities res (one
 * per arc) to a maximum flow, in place; returns the number of augmenting
 * paths.  parent_arc, stack and next_arc are scratch space of nv entries
 * each; parent_arc is left holding the last, failing search's marks. */
static int64_t covprune_max_flow(int64_t nv, int64_t source, int64_t sink,
                                 const int64_t *first, const int64_t *adj, const int64_t *to,
                                 int64_t *res, int64_t *parent_arc, int64_t *stack,
                                 int64_t *next_arc)
{
    int64_t augmentations = 0;
    while (dfs_augment(nv, source, sink, first, adj, to, res, parent_arc, stack,
                       next_arc) > 0)
        augmentations++;
    return augmentations;
}

/* The chain network that flow.build_network lays out: writes each arc's
 * head to to (j + 1 and j for backbone arc j, hi + 1 and lo + 1 for the
 * interval arcs) and the CSR adjacency first/adj.  The order is that of
 * one stable argsort of every arc by the vertex it leaves, then by
 * falling head (tests/reference_kernels.py's reference), and here it
 * follows from the chain's structure.  The arcs leaving
 * vertex u are the interval arcs out of u by falling hi, the backbone
 * arc u -> u + 1, the single-segment interval arcs out of u, the
 * backbone arc u -> u - 1, then the reverse interval arcs into u by
 * falling lo, ties going by arc index as in the stable sort; so two
 * counting sorts of the reads, each placed in one pass, give the same
 * first and adj in O(n + m).  build_network checks 0 <= lo < hi <= m - 1
 * before the call.  scratch holds 4(m + 2) + n entries.  Returns 0, or
 * -1 when an arc's head leaves the chain or the arcs miscount. */
static int64_t covprune_network(int64_t n, int64_t m, const int64_t *lo, const int64_t *hi,
                                int64_t *first, int64_t *adj, int64_t *to, int64_t *scratch)
{
    int64_t nb = m + 1, nv = m + 2;
    /* per vertex: interval arcs out, those spanning two or more segments,
     * interval arcs in, a cursor; then the reads in one order */
    int64_t *out = scratch;
    memset(out, 0, 3 * nv * sizeof *out);
    int64_t *multi = out + nv, *in = multi + nv, *at = in + nv, *order = at + nv;
    for (int64_t i = 0; i < n; i++) {
        out[lo[i] + 1]++;
        multi[lo[i] + 1] += hi[i] > lo[i] + 1;
        in[hi[i] + 1]++;
        to[2 * (nb + i)] = hi[i] + 1;
        to[2 * (nb + i) + 1] = lo[i] + 1;
    }
    first[0] = 0;
    for (int64_t u = 0; u < nv; u++)
        first[u + 1] = first[u] + (u <= m) + (u >= 1) + out[u] + in[u];
    for (int64_t j = 0; j < nb; j++) {
        to[2 * j] = j + 1;
        to[2 * j + 1] = j;
        adj[first[j] + multi[j]] = 2 * j;
        adj[first[j + 1] + (j + 1 <= m) + out[j + 1]] = 2 * j + 1;
    }

    /* the reads by falling hi, then their arcs placed by tail; a
     * single-segment arc goes one slot on, after the backbone arc */
    for (int64_t v = nv - 1, s = 0; v >= 0; s += in[v--])
        at[v] = s;
    for (int64_t i = 0; i < n; i++)
        order[at[hi[i] + 1]++] = i;
    for (int64_t u = 0; u < nv; u++)
        at[u] = first[u];
    for (int64_t j = 0; j < n; j++) {
        int64_t i = order[j];
        adj[at[lo[i] + 1]++ + (hi[i] == lo[i] + 1)] = 2 * (nb + i);
    }
    /* the reads by falling lo, then their reverse arcs placed by head,
     * after both backbone arcs */
    for (int64_t v = nv - 1, s = 0; v >= 0; s += out[v--])
        at[v] = s;
    for (int64_t i = 0; i < n; i++)
        order[at[lo[i] + 1]++] = i;
    for (int64_t u = 0; u < nv; u++)
        at[u] = first[u] + (u <= m) + out[u] + 1;
    for (int64_t j = 0; j < n; j++) {
        int64_t i = order[j];
        adj[at[hi[i] + 1]++] = 2 * (nb + i) + 1;
    }
    for (int64_t a = 0; a < 2 * (nb + n); a++)
        if (to[a] < 0 || to[a] >= nv)
            return -1;
    return first[nv] == 2 * (nb + n) ? 0 : -1;
}
