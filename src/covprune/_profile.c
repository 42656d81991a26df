/* The coverage profile that intervals.coverage_profile calls.
 *
 * Its twin is the argsort branch of intervals.coverage_profile, run when
 * no library loads: one argsort of all 2n endpoints, then each
 * endpoint's rank among the distinct ones.  Here the starts and the ends are ordered apart, each
 * by a stable LSD radix argsort that is O(n) a pass for any input and
 * skips its passes when the keys are in order already (the starts of a
 * sorted BED file), and one merge of the two orders writes the same
 * delimiters, lo, hi and segment coverage.  Coordinates are compared as
 * unsigned 64-bit values.  coverage_profile calls it only for n >= 1,
 * with the contiguous uint64 endpoints of an IntervalSet, which checked
 * start < end in every pair when it was built, and allocates the outputs
 * and the scratch at the sizes given below.
 */

#include <stdint.h>
#include <string.h>

#define DIGIT_BITS 11
#define RADIX (1 << DIGIT_BITS)

/* Order keys[0..n) by a stable radix argsort of 11-bit digits, taking
 * only the digits up to the largest key's top bit and skipping a digit
 * every key shares.  *key gets the keys in order and *idx their input
 * positions; both point into key_buf/idx_buf (2n entries, two halves
 * used in turn), or *key is keys itself and *idx NULL, the identity,
 * when keys is in order already.  count is scratch of RADIX entries. */
static void radix_argsort(int64_t n, const uint64_t *keys, uint64_t *key_buf,
                          int64_t *idx_buf, int64_t *count, const uint64_t **key,
                          const int64_t **idx)
{
    uint64_t bits = keys[0];
    int64_t descents = 0;
    for (int64_t i = 1; i < n; i++) {
        bits |= keys[i];
        descents += keys[i] < keys[i - 1];
    }
    *key = keys;
    *idx = NULL;
    if (!descents)
        return;
    int half = 0;
    for (int shift = 0; shift < 64 && bits >> shift; shift += DIGIT_BITS) {
        const uint64_t *src = *key;
        const int64_t *src_idx = *idx;
        memset(count, 0, RADIX * sizeof *count);
        for (int64_t i = 0; i < n; i++)
            count[(src[i] >> shift) & (RADIX - 1)]++;
        if (count[(src[0] >> shift) & (RADIX - 1)] == n)
            continue; /* every key has this digit: the order stands */
        for (int64_t d = 0, at = 0; d < RADIX; d++) {
            int64_t c = count[d];
            count[d] = at;
            at += c;
        }
        uint64_t *dst = key_buf + half * n;
        int64_t *dst_idx = idx_buf + half * n;
        for (int64_t i = 0; i < n; i++) {
            int64_t at = count[(src[i] >> shift) & (RADIX - 1)]++;
            dst[at] = src[i];
            dst_idx[at] = src_idx ? src_idx[i] : i;
        }
        *key = dst;
        *idx = dst_idx;
        half ^= 1;
    }
}

/* The coverage profile of [starts[i], ends[i]) for i < n: writes the
 * distinct endpoints in increasing order to delimiters, each interval's
 * delimiter indices to lo and hi, and the coverage of the segment after
 * delimiter j to segment_cov[j]; returns the number of delimiters m
 * (segment_cov's last entry, j = m - 1, is 0 and not part of the
 * profile).  delimiters and segment_cov have 2n entries, lo and hi n
 * each, and scratch 8n + RADIX (2048). */
int64_t covprune_profile(int64_t n, const uint64_t *starts, const uint64_t *ends,
                         uint64_t *delimiters, int64_t *lo, int64_t *hi,
                         int64_t *segment_cov, int64_t *scratch)
{
    uint64_t *key_buf = (uint64_t *)scratch;
    int64_t *idx_buf = scratch + 4 * n, *count = scratch + 8 * n;
    const uint64_t *sk, *ek;
    const int64_t *si, *ei;
    radix_argsort(n, starts, key_buf, idx_buf, count, &sk, &si);
    radix_argsort(n, ends, key_buf + 2 * n, idx_buf + 2 * n, count, &ek, &ei);

    /* every start lies below its own end, so the last delimiter is an
     * end and the merge runs until the ends are used up */
    int64_t m = 0, cov = 0;
    for (int64_t i = 0, e = 0; e < n; m++) {
        uint64_t v = ek[e];
        if (i < n && sk[i] <= v) { /* a start at or before the next end comes first */
            v = sk[i];
            for (; i < n && sk[i] == v; i++, cov++)
                lo[si ? si[i] : i] = m;
        }
        for (; e < n && ek[e] == v; e++, cov--)
            hi[ei ? ei[e] : e] = m;
        delimiters[m] = v;
        segment_cov[m] = cov;
    }
    return m;
}
