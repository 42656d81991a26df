/* The augmenting-path max-flow that flow.max_flow_augmenting calls.
 *
 * flow._augment_python and flow._bfs_augment are its line-for-line
 * Python twins on the same arrays, run when no library loads: the same
 * paired arcs (2a forward, 2a+1 reverse), the same adjacency order, the
 * same first-found shortest path, hence the same flow and the same
 * augmentation count.  The adjacency comes in CSR form: the arcs leaving
 * vertex u are adj[first[u]..first[u+1]).  flow.build_network validates
 * every index before the call.
 */

#include <stdint.h>

/* One breadth-first augmenting path from source to sink; returns the
 * amount pushed, 0 when the sink cannot be reached. */
static int64_t bfs_augment(int64_t nv, int64_t source, int64_t sink,
                           const int64_t *first, const int64_t *adj, const int64_t *to,
                           int64_t *res, int64_t *parent_arc, int64_t *queue)
{
    for (int64_t v = 0; v < nv; v++)
        parent_arc[v] = -1;
    parent_arc[source] = -2;
    int64_t head = 0, tail = 0;
    queue[tail++] = source;
    int found = 0;
    while (head < tail && !found) {
        int64_t u = queue[head++];
        for (int64_t p = first[u]; p < first[u + 1]; p++) {
            int64_t a = adj[p], v = to[a];
            if (parent_arc[v] == -1 && res[a] > 0) {
                parent_arc[v] = a;
                if (v == sink) {
                    found = 1;
                    break;
                }
                queue[tail++] = v;
            }
        }
    }
    if (!found)
        return 0;

    int64_t bottleneck = res[parent_arc[sink]];
    for (int64_t v = sink; v != source;) {
        int64_t a = parent_arc[v];
        if (res[a] < bottleneck)
            bottleneck = res[a];
        v = to[a ^ 1];
    }
    for (int64_t v = sink; v != source;) {
        int64_t a = parent_arc[v];
        res[a] -= bottleneck;
        res[a ^ 1] += bottleneck;
        v = to[a ^ 1];
    }
    return bottleneck;
}

/* Augment the feasible flow held in the residual capacities res (one
 * per arc) to a maximum flow, in place; returns the number of augmenting
 * paths.  parent_arc and queue are scratch space of nv entries each. */
int64_t covprune_max_flow(int64_t nv, int64_t source, int64_t sink,
                          const int64_t *first, const int64_t *adj, const int64_t *to,
                          int64_t *res, int64_t *parent_arc, int64_t *queue)
{
    int64_t augmentations = 0;
    while (bfs_augment(nv, source, sink, first, adj, to, res, parent_arc, queue) > 0)
        augmentations++;
    return augmentations;
}
