package obs

import "fmt"

// MaxBoundedLabelValues caps a BoundedLabels vocabulary. The whole point
// of the type is that label cardinality is an operator decision made at
// boot, never a function of request traffic; a vocabulary this large is
// a config bug.
const MaxBoundedLabelValues = 64

// BoundedLabels maps request-derived strings onto a fixed label
// vocabulary declared at construction — the bounded-cardinality rule
// for per-tenant metric families. Values in the declared set map to
// their own index; everything else (including the empty string) folds
// into the overflow bucket, so a scrape's series count is bounded by
// config no matter what identities requests carry. The zero value is
// unusable; construct with NewBoundedLabels.
type BoundedLabels struct {
	values []string
	index  map[string]int
}

// NewBoundedLabels builds a vocabulary from the declared values plus an
// overflow bucket (conventionally "other"). Declared values must be
// non-empty, distinct, distinct from the overflow name, and at most
// MaxBoundedLabelValues in number. Like registry registration, a bad
// vocabulary panics: it is boot-time operator config, and failing loudly
// at startup beats serving unbounded or ambiguous series.
func NewBoundedLabels(declared []string, overflow string) *BoundedLabels {
	if overflow == "" {
		panic("obs: bounded labels need a non-empty overflow bucket name")
	}
	if len(declared) > MaxBoundedLabelValues {
		panic(fmt.Sprintf("obs: %d bounded label values exceed cap %d", len(declared), MaxBoundedLabelValues))
	}
	b := &BoundedLabels{
		values: make([]string, 0, len(declared)+1),
		index:  make(map[string]int, len(declared)+1),
	}
	for _, v := range declared {
		if v == "" {
			panic("obs: empty bounded label value")
		}
		if v == overflow {
			panic(fmt.Sprintf("obs: bounded label value %q collides with the overflow bucket", v))
		}
		if _, dup := b.index[v]; dup {
			panic(fmt.Sprintf("obs: duplicate bounded label value %q", v))
		}
		b.index[v] = len(b.values)
		b.values = append(b.values, v)
	}
	b.values = append(b.values, overflow)
	return b
}

// Len returns the vocabulary size including the overflow bucket.
func (b *BoundedLabels) Len() int { return len(b.values) }

// Index maps a raw value onto its vocabulary slot: declared values get
// their own, everything else the overflow slot.
func (b *BoundedLabels) Index(v string) int {
	if i, ok := b.index[v]; ok {
		return i
	}
	return len(b.values) - 1
}

// Value returns the label value for slot i.
func (b *BoundedLabels) Value(i int) string { return b.values[i] }
