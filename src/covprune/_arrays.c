/* The general loops over flat buffers that the Python modules run
 * between the solver kernels, so that no per-record or per-segment loop
 * runs in Python.  Each checks the indices it follows and returns a
 * negative code, before writing anything out of bounds, when one is
 * outside its buffer; _module.c wraps them.
 */

#include <stdint.h>
#include <string.h>

/* Write to out the positions j < n, increasing, where values[j] ==
 * want; returns how many.  out has n entries. */
static int64_t covprune_select(int64_t n, const int64_t *values, int64_t want, int64_t *out)
{
    int64_t count = 0;
    for (int64_t j = 0; j < n; j++) {
        out[count] = j;
        count += values[j] == want;
    }
    return count;
}

/* out[0] and out[1] get the least and the largest of values[0..n), both
 * 0 when n is 0. */
static void covprune_min_max(int64_t n, const int64_t *values, int64_t *out)
{
    int64_t mn = n ? values[0] : 0, mx = mn;
    for (int64_t j = 1; j < n; j++) {
        mn = values[j] < mn ? values[j] : mn;
        mx = values[j] > mx ? values[j] : mx;
    }
    out[0] = mn;
    out[1] = mx;
}

/* The sum of hi[i] - lo[i] over i < n, or -1 unless 0 <= lo[i] < hi[i]
 * <= bound for every i. */
static int64_t covprune_spans(int64_t n, const int64_t *lo, const int64_t *hi, int64_t bound)
{
    int64_t sum = 0;
    for (int64_t i = 0; i < n; i++) {
        if (lo[i] < 0 || lo[i] >= hi[i] || hi[i] > bound)
            return -1;
        sum += hi[i] - lo[i];
    }
    return sum;
}

/* The first i < n with starts[i] >= ends[i], or -1 when there is none. */
static int64_t covprune_unordered(int64_t n, const uint64_t *starts, const uint64_t *ends)
{
    for (int64_t i = 0; i < n; i++)
        if (starts[i] >= ends[i])
            return i;
    return -1;
}

/* The coverage of the m - 1 segments between m delimiters by the reads
 * idx[0..nidx), each spanning delimiter indices [lo[i], hi[i]), into
 * cov[0..m - 1); cov has m entries.  With idx NULL the reads are
 * 0..n-1.  Returns 0, or -1 unless idx rises within [0, n) and 0 <=
 * lo[i] < hi[i] < m for each read. */
static int64_t covprune_recount(int64_t nidx, const int64_t *idx, int64_t n, const int64_t *lo,
                                const int64_t *hi, int64_t m, int64_t *cov)
{
    memset(cov, 0, (size_t)m * sizeof *cov);
    for (int64_t j = 0; j < (idx ? nidx : n); j++) {
        int64_t i = idx ? idx[j] : j;
        if (i < 0 || i >= n || (idx && j && idx[j - 1] >= i) || lo[i] < 0 || lo[i] >= hi[i]
            || hi[i] >= m)
            return -1;
        cov[lo[i]]++;
        cov[hi[i]]--;
    }
    for (int64_t j = 1; j < m; j++)
        cov[j] += cov[j - 1];
    return 0;
}

/* Group n records by their code (0 <= code[i] < ngroups) in a stable
 * counting sort: group g is positions first[g]..first[g + 1] of order,
 * the records' indices, and of group_starts and group_ends, their
 * endpoints.  first has ngroups + 1 entries.  Returns 0, or -1 when a
 * code is out of range. */
static int64_t covprune_group(int64_t n, const int64_t *code, int64_t ngroups,
                              const uint64_t *starts, const uint64_t *ends, int64_t *first,
                              int64_t *order, uint64_t *group_starts, uint64_t *group_ends)
{
    memset(first, 0, (size_t)(ngroups + 1) * sizeof *first);
    for (int64_t i = 0; i < n; i++) {
        if (code[i] < 0 || code[i] >= ngroups)
            return -1;
        first[code[i] + 1]++;
    }
    for (int64_t g = 0; g < ngroups; g++)
        first[g + 1] += first[g];
    /* first[g] serves as group g's cursor, and ends up at group g + 1's start */
    for (int64_t i = 0; i < n; i++) {
        int64_t at = first[code[i]]++;
        order[at] = i;
        group_starts[at] = starts[i];
        group_ends[at] = ends[i];
    }
    for (int64_t g = ngroups; g > 0; g--)
        first[g] = first[g - 1];
    first[0] = 0;
    return 0;
}

/* out[i] = values[r] for every i in run r, the runs being
 * [at[r], at[r + 1]) and the last [at[nruns - 1], n).  Returns 0, or -1
 * unless at[0] = 0 and the runs rise within [0, n). */
static int64_t covprune_runs(int64_t nruns, const int64_t *at, const int64_t *values, int64_t n,
                             int64_t *out)
{
    if (nruns && at[0] != 0)
        return -1;
    for (int64_t r = 0; r < nruns; r++) {
        int64_t end = r + 1 < nruns ? at[r + 1] : n;
        if (at[r] >= end || end > n)
            return -1;
        for (int64_t i = at[r]; i < end; i++)
            out[i] = values[r];
    }
    return 0;
}

/* mask[map[idx[j]]] = 1 for each j < nidx, map having nmap entries and
 * mask m.  Returns 0, or -1 when an index leaves its buffer. */
static int64_t covprune_scatter(int64_t nidx, const int64_t *idx, int64_t nmap, const int64_t *map,
                                int64_t m, uint8_t *mask)
{
    for (int64_t j = 0; j < nidx; j++) {
        if (idx[j] < 0 || idx[j] >= nmap || map[idx[j]] < 0 || map[idx[j]] >= m)
            return -1;
        mask[map[idx[j]]] = 1;
    }
    return 0;
}

/* Copy into out, in order, the lines of data that mask marks among n,
 * line i being the line_len[i] bytes at line_at[i]; a newline follows
 * the last one when it ends in neither '\n' nor '\r'.  Returns the
 * number of bytes, which out must hold; with out NULL, only counts them.
 * Returns -1 when a line leaves the size bytes of data. */
static int64_t covprune_lines(int64_t n, const uint8_t *mask, const int64_t *line_at,
                              const int64_t *line_len, int64_t size, const uint8_t *data,
                              uint8_t *out)
{
    int64_t total = 0, end = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!mask[i])
            continue;
        int64_t at = line_at[i], len = line_len[i];
        if (at < 0 || len < 1 || at > size - len)
            return -1;
        if (out)
            memcpy(out + total, data + at, (size_t)len);
        total += len;
        end = at + len;
    }
    if (total && data[end - 1] != '\n' && data[end - 1] != '\r') {
        if (out)
            out[total] = '\n';
        total++;
    }
    return total;
}

/* values[j * stride] += delta for j < n: a strided run of the buffer
 * raised by one amount. */
static void covprune_add(int64_t n, int64_t *values, int64_t stride, int64_t delta)
{
    for (int64_t j = 0; j < n; j++)
        values[j * stride] += delta;
}
