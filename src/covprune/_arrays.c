/* The general loops over flat buffers that the Python modules run
 * between the solver kernels, so that no per-record or per-segment loop
 * runs in Python.  Each checks the indices it follows and returns a
 * negative code, before writing anything out of bounds, when one is
 * outside its buffer; _module.c wraps them.  The split per chromosome
 * reads the reader's runs as they are, and every solver's answer, a keep
 * column over the chain, is scored by one call: its kept reads and the
 * coverage they give, with its extremes.
 */

#include <stdint.h>
#include <string.h>

/* The answer of a keep column over the chain of n places, place p holding
 * read order[p], spanning delimiter indices [lo[p], hi[p]) and kept when
 * keep[p] is 1.  Writes the kept reads, rising, into reads, which has n
 * entries, and returns their number; writes the coverage of the m - 1
 * segments between m delimiters by the kept places into cov[0..m - 1),
 * and cov[m - 1] gets 0, with its least and largest value in
 * extremes[0] and extremes[1], both 0 when m < 2.  mark is n bytes of
 * scratch.  Returns -1, before it writes anything, unless every keep[p]
 * is 0 or 1, order holds each read of [0, n) once, and every place has
 * 0 <= lo[p] < hi[p] < m. */
static int64_t covprune_score(int64_t n, const int64_t *keep, const int64_t *order,
                              const int64_t *lo, const int64_t *hi, int64_t m, int64_t *reads,
                              int64_t *cov, int64_t *extremes, uint8_t *mark)
{
    for (int64_t i = 0; i < n; i++) /* no memset: with n = 0, mark is NULL */
        mark[i] = 0;
    for (int64_t p = 0; p < n; p++) { /* 1 marks a read that a place holds, 2 a kept one */
        if (keep[p] < 0 || keep[p] > 1 || order[p] < 0 || order[p] >= n || mark[order[p]]
            || lo[p] < 0 || lo[p] >= hi[p] || hi[p] >= m)
            return -1;
        mark[order[p]] = (uint8_t)(1 + keep[p]);
    }
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) { /* branch-free: the marks are mixed */
        reads[count] = i;
        count += mark[i] - 1;
    }
    memset(cov, 0, (size_t)m * sizeof *cov);
    for (int64_t p = 0; p < n; p++) {
        cov[lo[p]] += keep[p];
        cov[hi[p]] -= keep[p];
    }
    int64_t mn = m > 1 ? cov[0] : 0, mx = mn;
    for (int64_t j = 1; j < m - 1; j++) {
        cov[j] += cov[j - 1];
        mn = cov[j] < mn ? cov[j] : mn;
        mx = cov[j] > mx ? cov[j] : mx;
    }
    if (m)
        cov[m - 1] = 0; /* every kept place's rise and fall have cancelled */
    extremes[0] = mn;
    extremes[1] = mx;
    return count;
}

/* Group n records by the runs of one code the reader found, in a stable
 * counting sort: run r is records [run_at[r], run_at[r + 1]), the last
 * one [run_at[nruns - 1], n), all of code run_code[r] (0 <= code <
 * ngroups).  Group g is positions first[g]..first[g + 1] of order, the
 * records' indices, and of group_starts and group_ends, their
 * endpoints.  first has ngroups + 1 entries.  Returns 0, or -1 unless
 * the runs start at 0, rise and cover [0, n) and every code is in range. */
static int64_t covprune_group(int64_t nruns, const int64_t *run_at, const int64_t *run_code,
                              int64_t n, int64_t ngroups, const uint64_t *starts,
                              const uint64_t *ends, int64_t *first, int64_t *order,
                              uint64_t *group_starts, uint64_t *group_ends)
{
    if (nruns ? run_at[0] != 0 : n != 0)
        return -1;
    memset(first, 0, (size_t)(ngroups + 1) * sizeof *first);
    for (int64_t r = 0; r < nruns; r++) {
        int64_t end = r + 1 < nruns ? run_at[r + 1] : n;
        /* rising from 0 to the last run's end, n, the runs stay in [0, n) */
        if (run_at[r] >= end || run_code[r] < 0 || run_code[r] >= ngroups)
            return -1;
        first[run_code[r] + 1] += end - run_at[r];
    }
    for (int64_t g = 0; g < ngroups; g++)
        first[g + 1] += first[g];
    /* first[g] serves as group g's cursor, and ends up at group g + 1's start */
    for (int64_t r = 0; r < nruns; r++) {
        int64_t i = run_at[r], size = (r + 1 < nruns ? run_at[r + 1] : n) - i;
        int64_t at = first[run_code[r]];
        first[run_code[r]] += size;
        for (int64_t j = 0; j < size; j++) {
            order[at + j] = i + j;
            group_starts[at + j] = starts[i + j];
            group_ends[at + j] = ends[i + j];
        }
    }
    for (int64_t g = ngroups; g > 0; g--)
        first[g] = first[g - 1];
    first[0] = 0;
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
 * number of bytes, which out must hold; with out NULL, only counts them,
 * without a branch on the mask, which a mixed mask would mispredict.
 * Returns -1 when a line leaves the size bytes of data; the bounds are
 * compared unsigned, so that no sum overflows and a negative start or
 * a length below 1 is refused too. */
static int64_t covprune_lines(int64_t n, const uint8_t *mask, const int64_t *line_at,
                              const int64_t *line_len, int64_t size, const uint8_t *data,
                              uint8_t *out)
{
    uint64_t total = 0, outside = 0, bytes = (uint64_t)size;
    for (int64_t i = 0; i < n; i++) {
        uint64_t keep = mask[i] != 0, at = (uint64_t)line_at[i], len = (uint64_t)line_len[i];
        outside |= keep & ((at > bytes) | (len - 1 >= bytes - at));
        if (out && keep && !outside)
            memcpy(out + total, data + at, len);
        total += len & -keep;
    }
    if (outside)
        return -1;
    int64_t last = n;
    while (last > 0 && !mask[last - 1])
        last--;
    int64_t end = last ? line_at[last - 1] + line_len[last - 1] : 0;
    if (total && data[end - 1] != '\n' && data[end - 1] != '\r') {
        if (out)
            out[total] = '\n';
        total++;
    }
    return (int64_t)total;
}
