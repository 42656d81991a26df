/* The augmenting-path max-flow that flow.max_flow_augmenting calls.
 *
 * flow._augment_python and flow._dfs_augment are its line-for-line
 * Python twins on the same arrays, run when no library loads: the same
 * paired arcs (2a forward, 2a+1 reverse), the same adjacency order, the
 * same first-found depth-first path, hence the same flow and the same
 * augmentation count.  The adjacency comes in CSR form: the arcs leaving
 * vertex u are adj[first[u]..first[u+1]), listed by falling head, so the
 * search tries the arc that reaches farthest along the chain first.
 * flow.build_network validates every index before the call.
 */

#include <stdint.h>

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
int64_t covprune_max_flow(int64_t nv, int64_t source, int64_t sink,
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
