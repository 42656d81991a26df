/* The one-pass reader of regular plain and BED3 files that
 * io.read_instance calls.
 *
 * io._parse_regular is its Python twin, run when no library loads: one
 * np.loadtxt pass that accepts the same regular files and yields the
 * same columns.  Both refuse (return -1, or None) anything else, so that
 * io.parse_instance, the line parser, reads it and names a bad line.
 * Accepted: tokens of bytes 0x21-0x7e except '#', separated by ' ' or
 * '\t', lines ended by '\n' or "\r\n" (or the end of the data), blank
 * lines, exactly `fields` tokens on every other line, coordinates of the
 * digits 0-9 alone up to 2^64 - 1, and start < end.  Refused besides: a
 * lone '\r', control and non-ASCII bytes, and coordinates such as +5 or
 * 1_000 that Python's int() reads.  io.py passes buffers of one slot per
 * line, which bounds the record count.  Each record's line is also
 * given as a byte range, its terminator included, so that the CLI can
 * echo the kept lines as they were written.
 */

#include <stdint.h>
#include <string.h>

/* the digits in [p, end) as a number; -1 (refuse) when empty, not all
 * digits or above 2^64 - 1 */
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

/* Read `fields` = 2 (plain: start end) or 3 (BED3: name start end)
 * tokens per record into starts/ends.  For BED3, head[i] is 1 where
 * record i's name differs from record i-1's (always for record 0), and
 * only there are the name's offset in data and length set (name_at[i],
 * name_len[i]).  Record i's line starts at line_at[i] and runs for
 * line_len[i] bytes, through its '\n' or to the end of the data.
 * Returns the number of records, or -1 to refuse the file. */
int64_t covprune_parse(const uint8_t *data, int64_t size, int64_t fields,
                       uint64_t *starts, uint64_t *ends, uint8_t *head,
                       int64_t *name_at, int64_t *name_len,
                       int64_t *line_at, int64_t *line_len)
{
    const uint8_t *p = data, *end = data + size;
    const uint8_t *prev = NULL;
    int64_t prev_len = 0, n = 0;
    while (p < end) {
        const uint8_t *line = p, *name = NULL;
        int64_t got = 0, len = 0;
        uint64_t coord[2] = {0, 0};
        for (;;) {
            while (p < end && (*p == ' ' || *p == '\t'))
                p++;
            if (p == end || *p == '\n')
                break;
            if (*p == '\r') {
                if (p + 1 == end || p[1] != '\n')
                    return -1;
                p++;
                break;
            }
            const uint8_t *token = p;
            while (p < end && *p > ' ' && *p < 0x7f && *p != '#')
                p++;
            if (p < end && *p != ' ' && *p != '\t' && *p != '\n' && *p != '\r')
                return -1;
            if (got == fields)
                return -1;
            if (got < fields - 2) {
                name = token;
                len = p - token;
            } else if (read_coord(token, p, &coord[got - (fields - 2)]) < 0) {
                return -1;
            }
            got++;
        }
        if (p < end)
            p++;  /* past the '\n' */
        if (got == 0)
            continue;  /* a blank line */
        if (got != fields || coord[0] >= coord[1])
            return -1;
        starts[n] = coord[0];
        ends[n] = coord[1];
        line_at[n] = line - data;
        line_len[n] = p - line;
        if (name) {
            head[n] = !prev || len != prev_len || memcmp(name, prev, (size_t)len);
            if (head[n]) {
                name_at[n] = name - data;
                name_len[n] = len;
            }
            prev = name;
            prev_len = len;
        }
        n++;
    }
    return n;
}
