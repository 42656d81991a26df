/* The reader of plain and BED3 files: io.read_instance and
 * io.parse_instance read every input through it.
 *
 * A line ends at '\n', "\r\n" or a lone '\r', or at the end of the data.
 * A blank line (spaces and tabs alone) is skipped, and so is a comment, a
 * line whose first byte past its blanks is '#'.  A token is a run of
 * bytes other than ' ', '\t', '\r' and '\n'.  A data line holds `fields`
 * tokens, 2 (plain: start end) or 3 (BED3: name start end); with fields 0
 * the first data line's count, 2 or 3, decides.  Coordinates are the
 * digits 0-9 alone, at most 2^64 - 1, with start < end.  A name may hold
 * any token byte, bytes >= 0x80 too: the caller decodes it.  A control
 * byte (0x00-0x1f but '\t', or 0x7f) refuses its line, a comment's too,
 * as does the UTF-8 of U+0085, U+2028 or U+2029 in a comment: Python's
 * str.splitlines ends a line at each of them.  Each record's line is
 * also given as a byte range, its terminator included, so that the CLI
 * can echo the kept lines as they were written.
 */

#include <stdint.h>
#include <string.h>

/* why the reader stopped at a line: info[2] of covprune_parse */
enum { BAD_FIELDS = 1, BAD_BYTE, BAD_START, BAD_END, BAD_ORDER };

/* the digits in [p, end) as a number; -1 when empty, not all digits or
 * above 2^64 - 1 */
static int read_coord(const uint8_t *p, const uint8_t *end, uint64_t *out)
{
    uint64_t v = 0;
    if (p == end)
        return -1;
    for (; p < end; p++) {
        uint64_t d = (uint64_t)(*p - '0');
        if (d > 9 || v > (UINT64_MAX - d) / 10)
            return -1;
        v = 10 * v + d;
    }
    *out = v;
    return 0;
}

/* whether a comment's byte at p, before end, is a control byte or
 * starts the UTF-8 of U+0085, U+2028 or U+2029 */
static int breaks_comment(const uint8_t *p, const uint8_t *end)
{
    if (*p < ' ' || *p == 0x7f)
        return *p != '\t';
    if (*p == 0xc2)
        return end - p > 1 && p[1] == 0x85;
    return *p == 0xe2 && end - p > 2 && p[1] == 0x80 && (p[2] | 1) == 0xa9;
}

/* Read records of `fields` = 2 or 3 tokens, or with fields 0 of the first
 * data line's count, into starts/ends.  For BED3, each run of records of
 * one name is written as run r: its first record runs[3r], and its name's
 * offset in data and length, runs[3r + 1] and runs[3r + 2]; past max_runs
 * of them the reader stops and returns -2.  Record i's line starts at
 * line_at[i] and runs for line_len[i] bytes, through its terminator or to
 * the end of the data.  The four record columns hold max_records entries
 * each; a record past them stops the reader, before it writes anything,
 * with -3.  info gets the number of runs and the field count, 0 when no
 * data line set it; at a bad line the reader stops and returns -1, and
 * info[2] to info[5] get why (BAD_*), the line's 1-based number, and its
 * offset and length without its terminator.
 * Returns the number of records. */
static int64_t covprune_parse(const uint8_t *data, int64_t size, int64_t fields, int64_t max_runs,
                              int64_t max_records, uint64_t *starts, uint64_t *ends, int64_t *runs,
                              int64_t *info, int64_t *line_at, int64_t *line_len)
{
    const uint8_t *p = data, *end = data + size, *line = data;
    const uint8_t *prev = NULL;
    int64_t prev_len = 0, n = 0, r = 0, line_no = 0, why = 0;
    while (p < end) {
        const uint8_t *token[3] = {NULL, NULL, NULL}, *token_end[3] = {NULL, NULL, NULL};
        int64_t got = 0;
        uint64_t coord[2] = {0, 0};
        line = p;
        line_no++;
        while (p < end && (*p == ' ' || *p == '\t'))
            p++;
        if (p < end && *p == '#') {
            for (; p < end && *p != '\n' && *p != '\r'; p++)
                if (breaks_comment(p, end)) {
                    why = BAD_BYTE;
                    goto bad;
                }
        }
        for (;;) {
            while (p < end && (*p == ' ' || *p == '\t'))
                p++;
            if (p == end || *p == '\n' || *p == '\r')
                break;
            const uint8_t *t = p;
            while (p < end && *p > ' ' && *p != 0x7f)
                p++;
            if (p < end && *p != ' ' && *p != '\t' && *p != '\n' && *p != '\r') {
                why = BAD_BYTE;
                goto bad;
            }
            if (got < 3) {
                token[got] = t;
                token_end[got] = p;
            }
            got++;
        }
        if (p < end)
            p += 1 + (*p == '\r' && end - p > 1 && p[1] == '\n');  /* past the terminator */
        if (got == 0)
            continue;  /* a blank line or a comment */
        if (fields == 0 && (got == 2 || got == 3))
            fields = got;
        if (got != fields)
            why = BAD_FIELDS;
        else if (read_coord(token[fields - 2], token_end[fields - 2], &coord[0]) < 0)
            why = BAD_START;
        else if (read_coord(token[fields - 1], token_end[fields - 1], &coord[1]) < 0)
            why = BAD_END;
        else if (coord[0] >= coord[1])
            why = BAD_ORDER;
        if (why)
            goto bad;
        if (n == max_records)
            return -3;
        starts[n] = coord[0];
        ends[n] = coord[1];
        line_at[n] = line - data;
        line_len[n] = p - line;
        const uint8_t *name = token[0];
        int64_t len = token_end[0] - name;
        if (fields == 3 && (!prev || len != prev_len || memcmp(name, prev, (size_t)len))) {
            if (r == max_runs)
                return -2;
            runs[3 * r] = n;
            runs[3 * r + 1] = name - data;
            runs[3 * r + 2] = len;
            r++;
            prev = name;
            prev_len = len;
        }
        n++;
    }
    info[0] = r;
    info[1] = fields;
    return n;
bad:
    for (p = line; p < end && *p != '\n' && *p != '\r'; p++)
        ;
    info[0] = r;
    info[1] = fields;
    info[2] = why;
    info[3] = line_no;
    info[4] = line - data;
    info[5] = p - line;
    return -1;
}
