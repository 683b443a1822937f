package onesided

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxTextLine caps a single line of the text format (16 MiB — a capacity
// header for ~1.6M posts, or one preference row of ~2M entries). Longer
// lines are a malformed or hostile input, reported with their line number.
const maxTextLine = 1 << 24

// Text interchange format, one instance per stream:
//
//	posts <numPosts>
//	c 2 1 3 ...
//	a0: p1 p4 p5
//	a1: (p4 p5) p7
//	...
//
// Each line after the header is one applicant's preference list, most
// preferred first. Parenthesized groups are tie classes. Post tokens are
// `p<id>`; applicant labels before the colon are decorative and ignored.
// Blank lines and lines starting with '#' are skipped.
//
// The optional `c` line, directly after the `posts` header and before any
// preference list, gives per-post capacities (one positive integer per
// post). It is omitted for unit-capacity instances, so files written by
// older versions parse unchanged and unit instances round-trip to the
// historical format.

// Write serializes ins in the text format. When w is already a
// *bufio.Writer (e.g. geninstance's size-tuned stdout buffer) it is used
// directly instead of stacking a second buffer; it is flushed either way.
func Write(w io.Writer, ins *Instance) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	fmt.Fprintf(bw, "posts %d\n", ins.NumPosts)
	if ins.Capacities != nil {
		bw.WriteString("c")
		for _, c := range ins.Capacities {
			fmt.Fprintf(bw, " %d", c)
		}
		bw.WriteByte('\n')
	}
	for a := 0; a < ins.NumApplicants; a++ {
		fmt.Fprintf(bw, "a%d:", a)
		l, r := ins.Lists[a], ins.Ranks[a]
		for i := 0; i < len(l); {
			j := i
			for j < len(l) && r[j] == r[i] {
				j++
			}
			if j-i > 1 {
				bw.WriteString(" (")
				for k := i; k < j; k++ {
					if k > i {
						bw.WriteByte(' ')
					}
					fmt.Fprintf(bw, "p%d", l[k])
				}
				bw.WriteByte(')')
			} else {
				fmt.Fprintf(bw, " p%d", l[i])
			}
			i = j
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Read parses an instance from the text format.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxTextLine)
	numPosts := -1
	var capacities []int32
	var lists [][]int32
	var ranks [][]int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if numPosts < 0 {
			var n int
			if _, err := fmt.Sscanf(line, "posts %d", &n); err != nil {
				return nil, fmt.Errorf("line %d: expected `posts <n>` header: %v", lineNo, err)
			}
			numPosts = n
			continue
		}
		if isCapacityLine(line) {
			if capacities != nil {
				return nil, fmt.Errorf("line %d: duplicate capacity line", lineNo)
			}
			if len(lists) > 0 {
				return nil, fmt.Errorf("line %d: capacity line must precede preference lists", lineNo)
			}
			caps, err := parseCapacities(line, numPosts)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			capacities = caps
			continue
		}
		if i := strings.IndexByte(line, ':'); i >= 0 {
			line = line[i+1:]
		}
		l, rk, err := parseList(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		lists = append(lists, l)
		ranks = append(ranks, rk)
	}
	if err := sc.Err(); err != nil {
		// The scanner surfaces bufio.ErrTooLong bare; the failing line is the
		// one after the last complete scan. Re-wrap with that context so a
		// 16MiB+ capacity header names its line instead of a bare "token too
		// long".
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("line %d: %w (lines are capped at %d bytes)", lineNo+1, err, maxTextLine)
		}
		return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	if numPosts < 0 {
		return nil, fmt.Errorf("missing `posts <n>` header")
	}
	ins, err := NewWithTies(numPosts, lists, ranks)
	if err != nil {
		return nil, err
	}
	if capacities != nil {
		if err := ins.SetCapacities(capacities); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// isCapacityLine reports whether a trimmed line is the optional capacity
// header: the bare token `c` followed by per-post capacities. Preference
// lines never match: their labels carry a colon and their post tokens start
// with 'p'.
func isCapacityLine(line string) bool {
	return line == "c" || strings.HasPrefix(line, "c ") || strings.HasPrefix(line, "c\t")
}

func parseCapacities(line string, numPosts int) ([]int32, error) {
	fields := strings.Fields(line)[1:] // drop the leading "c"
	if len(fields) != numPosts {
		return nil, fmt.Errorf("capacity line has %d entries, want %d", len(fields), numPosts)
	}
	caps := make([]int32, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad capacity %q", f)
		}
		if v < 1 {
			return nil, fmt.Errorf("capacity %d out of range, want >= 1", v)
		}
		caps = append(caps, int32(v))
	}
	return caps, nil
}

func parseList(s string) (list, ranks []int32, err error) {
	rank := int32(0)
	inTie := false
	for _, tok := range strings.Fields(strings.ReplaceAll(strings.ReplaceAll(s, "(", " ( "), ")", " ) ")) {
		switch tok {
		case "(":
			if inTie {
				return nil, nil, fmt.Errorf("nested tie group")
			}
			inTie = true
			rank++
		case ")":
			if !inTie {
				return nil, nil, fmt.Errorf("unbalanced )")
			}
			inTie = false
		default:
			if !strings.HasPrefix(tok, "p") {
				return nil, nil, fmt.Errorf("bad post token %q", tok)
			}
			id, err := strconv.Atoi(tok[1:])
			if err != nil {
				return nil, nil, fmt.Errorf("bad post token %q", tok)
			}
			if !inTie {
				rank++
			}
			list = append(list, int32(id))
			ranks = append(ranks, rank)
		}
	}
	if inTie {
		return nil, nil, fmt.Errorf("unbalanced (")
	}
	if len(list) == 0 {
		return nil, nil, fmt.Errorf("empty preference list")
	}
	return list, ranks, nil
}
