/* The coverage profile that intervals.coverage_profile calls, with the
 * summary every solver reads (min and max coverage, segments spanned)
 * and the chain order every other kernel reads the reads in.
 *
 * The starts and the ends are ordered apart, each by a stable LSD radix
 * argsort that is O(n) a pass for any input and skips its passes when
 * the keys are in order already (the starts of a sorted BED file), and
 * one merge of the two orders writes the delimiters, the segment
 * coverage and the chain order with each place's lo and hi.
 * Coordinates are compared as unsigned 64-bit values.  coverage_profile
 * calls it only for n >= 1, with the contiguous uint64 endpoints of an
 * IntervalSet, and allocates the outputs at the sizes given below; the
 * module allocates the scratch.  A read with start >= end is refused
 * before anything is written.
 */

#include <stdint.h>
#include <string.h>

#define DIGIT_BITS 11
#define RADIX (1 << DIGIT_BITS)

/* Order keys[0..n) by a stable radix argsort of 11-bit digits, taking
 * only the digits up to the largest key's top bit and skipping a digit
 * every key shares.  *key gets the keys in order and *idx their input
 * positions; both point into the halves key_half[h] and idx_half[h] (n
 * entries each) of the last pass, h = 0 or 1 in turn from the first
 * pass on, or *key is keys itself and *idx NULL, the identity, when keys
 * is in order already.  count is scratch of RADIX entries. */
static void radix_argsort(int64_t n, const uint64_t *keys, uint64_t *const key_half[2],
                          int64_t *const idx_half[2], int64_t *count, const uint64_t **key,
                          const int64_t **idx)
{
    uint64_t bits = n ? keys[0] : 0;
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
        uint64_t *dst = key_half[half];
        int64_t *dst_idx = idx_half[half];
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
 * distinct endpoints in increasing order to delimiters, the coverage of
 * the segment after delimiter j to segment_cov[j], and the reads in
 * chain order, by (start, end, i), to order, place p holding read
 * order[p], whose delimiter indices go to lo[p] and hi[p]; returns the
 * number of delimiters m (segment_cov's last entry, j = m - 1, is 0 and
 * not part of the profile), or -1, before it writes anything, unless
 * starts[i] < ends[i] for every read.  summary gets the profile's least
 * and largest coverage and its sum, which is also the sum of hi[p] -
 * lo[p], the segments the reads span.  delimiters and segment_cov have
 * 2n entries, lo, hi and order n each, summary 3 and scratch 6n + RADIX
 * (2048): the starts' order takes two halves of n keys and two of n
 * positions, the ends' order reuses the one of each it leaves free, and
 * the merge takes the one the ends leave free. */
static int64_t covprune_profile(int64_t n, const uint64_t *starts, const uint64_t *ends,
                                uint64_t *delimiters, int64_t *lo, int64_t *hi, int64_t *order,
                                int64_t *segment_cov, int64_t *summary, int64_t *scratch)
{
    int unordered = 0; /* or-ed without a branch, so that the check vectorizes */
    for (int64_t i = 0; i < n; i++)
        unordered |= starts[i] >= ends[i];
    if (unordered)
        return -1;
    uint64_t *keys = (uint64_t *)scratch;
    int64_t *pos = scratch + 3 * n, *count = scratch + 6 * n;
    const uint64_t *sk, *ek;
    const int64_t *si, *ei;
    radix_argsort(n, starts, (uint64_t *[2]){keys, keys + n}, (int64_t *[2]){pos, pos + n},
                  count, &sk, &si);
    int64_t left = sk == keys ? n : 0; /* the half the starts' order left free */
    radix_argsort(n, ends, (uint64_t *[2]){keys + left, keys + 2 * n},
                  (int64_t *[2]){pos + left, pos + 2 * n}, count, &ek, &ei);
    int64_t spare = ei == pos + 2 * n ? left : 2 * n; /* the half the ends' order left free */
    /* the reads of one start take the places from the first, g, on; each
     * read's group[i] is its g, and next[g] the place its next end takes */
    int64_t *group = pos + spare, *next = (int64_t *)(keys + spare);

    /* every start lies below its own end, so the last delimiter is an
     * end and the merge runs until the ends are used up; the segment
     * after it, the last one written, is left out of the summary.  The
     * ends come by (end, i), so each start's places fill by (end, i) */
    int64_t m = 0, cov = 0, mn = INT64_MAX, mx = 0, spanned = 0;
    for (int64_t i = 0, e = 0; e < n; m++) {
        uint64_t v = ek[e];
        if (i < n && sk[i] <= v) { /* a start at or before the next end comes first */
            v = sk[i];
            next[i] = i;
            for (int64_t g = i; i < n && sk[i] == v; i++, cov++) {
                group[si ? si[i] : i] = g;
                lo[i] = m;
            }
        }
        for (; e < n && ek[e] == v; e++, cov--) {
            int64_t read = ei ? ei[e] : e, p = next[group[read]]++;
            order[p] = read;
            hi[p] = m;
        }
        delimiters[m] = v;
        segment_cov[m] = cov;
        if (e < n) {
            mn = cov < mn ? cov : mn;
            mx = cov > mx ? cov : mx;
            spanned += cov;
        }
    }
    summary[0] = mn;
    summary[1] = mx;
    summary[2] = spanned;
    return m;
}
