package rules

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

// DomainMap implements the paper's named future-work extension (end of §2):
// instead of assuming that equal constants denote equal objects (the URI
// reading), a domain relation à la [Serafini et al. 2003] maps object
// identifiers of one node onto identifiers of another. When data flows from
// node From to node To through any coordination rule, every value with an
// entry in the map is rewritten; unmapped values pass through unchanged, so
// the URI assumption remains the default.
type DomainMap struct {
	From, To string
	Pairs    map[relalg.Value]relalg.Value // source value -> target value
}

// NewDomainMap creates an empty map between two nodes.
func NewDomainMap(from, to string) *DomainMap {
	return &DomainMap{From: from, To: to, Pairs: map[relalg.Value]relalg.Value{}}
}

// Add registers one translation pair (last write wins).
func (d *DomainMap) Add(src, dst relalg.Value) { d.Pairs[src] = dst }

// Translate rewrites one value; unmapped values (and all nulls) pass
// through.
func (d *DomainMap) Translate(v relalg.Value) relalg.Value {
	if d == nil || v.IsNull() {
		return v
	}
	if out, ok := d.Pairs[v]; ok {
		return out
	}
	return v
}

// TranslateTuple rewrites a tuple, allocating only when something changes.
func (d *DomainMap) TranslateTuple(t relalg.Tuple) relalg.Tuple {
	if d == nil || len(d.Pairs) == 0 {
		return t
	}
	var out relalg.Tuple
	for i, v := range t {
		w := d.Translate(v)
		if w != v && out == nil {
			out = t.Clone()
		}
		if out != nil {
			out[i] = w
		}
	}
	if out == nil {
		return t
	}
	return out
}

// TranslateTuples rewrites a batch of tuples; without a map it returns ts
// itself.
func (d *DomainMap) TranslateTuples(ts []relalg.Tuple) []relalg.Tuple {
	if d == nil || len(d.Pairs) == 0 {
		return ts
	}
	out := make([]relalg.Tuple, len(ts))
	for i, t := range ts {
		out[i] = d.TranslateTuple(t)
	}
	return out
}

// Format renders the map in network-file syntax, pairs in the order of their
// source values' keys.
func (d *DomainMap) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "map %s -> %s {", d.From, d.To)
	srcs := make([]relalg.Value, 0, len(d.Pairs))
	for src := range d.Pairs {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Key() < srcs[j].Key() })
	for _, src := range srcs {
		fmt.Fprintf(&b, " %s => %s ", src.Quoted(), d.Pairs[src].Quoted())
	}
	b.WriteString("}")
	return b.String()
}

// MapSet indexes the domain maps of a network by (from, to) pair.
type MapSet map[string]*DomainMap

func mapKey(from, to string) string { return from + "\x00" + to }

// BuildMapSet indexes a list of maps.
func BuildMapSet(maps []*DomainMap) MapSet {
	out := MapSet{}
	for _, m := range maps {
		out[mapKey(m.From, m.To)] = m
	}
	return out
}

// For returns the map translating values flowing from -> to, or nil.
func (s MapSet) For(from, to string) *DomainMap {
	if s == nil {
		return nil
	}
	return s[mapKey(from, to)]
}

// parseDomainMap parses "A -> B { 'x' => 'y'  'p' => 'q' }" (after the map
// keyword). The body may span the remainder of the line only (single-line
// form keeps the file format line-oriented).
func parseDomainMap(src string) (*DomainMap, error) {
	arrow := strings.Index(src, "->")
	if arrow < 0 {
		return nil, fmt.Errorf("rules: map missing '->' in %q", src)
	}
	from := strings.TrimSpace(src[:arrow])
	rest := strings.TrimSpace(src[arrow+2:])
	brace := strings.IndexByte(rest, '{')
	if brace < 0 || !strings.HasSuffix(rest, "}") {
		return nil, fmt.Errorf("rules: map body must be '{ v => w ... }' in %q", src)
	}
	to := strings.TrimSpace(rest[:brace])
	if from == "" || to == "" {
		return nil, fmt.Errorf("rules: map needs both endpoints in %q", src)
	}
	body := strings.TrimSpace(rest[brace+1 : len(rest)-1])
	m := NewDomainMap(from, to)
	if body == "" {
		return m, nil
	}
	for _, pair := range splitPairs(body) {
		parts := strings.SplitN(pair, "=>", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("rules: map pair %q lacks '=>'", pair)
		}
		src, err := relalg.ParseValue(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("rules: map pair %q: %w", pair, err)
		}
		dst, err := relalg.ParseValue(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("rules: map pair %q: %w", pair, err)
		}
		m.Add(src, dst)
	}
	return m, nil
}

// splitPairs splits "a => b  c => d" on whitespace boundaries between pairs,
// respecting single-quoted strings.
func splitPairs(body string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	arrowSeen := false
	flush := func() {
		s := strings.TrimSpace(cur.String())
		if s != "" {
			out = append(out, s)
		}
		cur.Reset()
		arrowSeen = false
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\'' {
			inQuote = !inQuote
		}
		if !inQuote && c == '=' && i+1 < len(body) && body[i+1] == '>' {
			arrowSeen = true
		}
		// A new pair starts when, after a completed "x => y", we hit a
		// space followed by a non-space that begins a fresh value.
		if !inQuote && arrowSeen && (c == ' ' || c == '\t') {
			rest := strings.TrimSpace(body[i:])
			if rest != "" && !strings.HasPrefix(rest, "=>") {
				// Did the value after => already appear? Require at least
				// one non-space after the arrow in cur.
				after := cur.String()
				if j := strings.Index(after, "=>"); j >= 0 && strings.TrimSpace(after[j+2:]) != "" {
					flush()
					continue
				}
			}
		}
		cur.WriteByte(c)
	}
	flush()
	return out
}
