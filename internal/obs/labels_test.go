package obs

import (
	"strings"
	"testing"
)

func TestBoundedLabels(t *testing.T) {
	b := NewBoundedLabels([]string{"alpha", "beta"}, "other")
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if i := b.Index("alpha"); i != 0 || b.Value(i) != "alpha" {
		t.Errorf("alpha -> %d (%q)", i, b.Value(i))
	}
	if i := b.Index("beta"); i != 1 {
		t.Errorf("beta -> %d", i)
	}
	// Anything outside the declared vocabulary — unknown tenants, the
	// empty string, hostile garbage — folds into overflow: cardinality
	// is config-derived, never request-derived.
	for _, v := range []string{"gamma", "", "alpha2", strings.Repeat("x", 10000)} {
		if i := b.Index(v); b.Value(i) != "other" {
			t.Errorf("%q -> %q, want other", v, b.Value(i))
		}
	}
	if got := b.values; len(got) != 3 || got[2] != "other" {
		t.Errorf("Values = %v", got)
	}
}

func TestBoundedLabelsEmptyDeclared(t *testing.T) {
	b := NewBoundedLabels(nil, "other")
	if b.Len() != 1 || b.Value(b.Index("anything")) != "other" {
		t.Errorf("empty vocabulary should still fold everything into overflow")
	}
}

func TestBoundedLabelsPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	expectPanic("dup", func() { NewBoundedLabels([]string{"a", "a"}, "other") })
	expectPanic("empty value", func() { NewBoundedLabels([]string{""}, "other") })
	expectPanic("empty overflow", func() { NewBoundedLabels([]string{"a"}, "") })
	expectPanic("overflow collision", func() { NewBoundedLabels([]string{"other"}, "other") })
	expectPanic("over cap", func() {
		big := make([]string, MaxBoundedLabelValues+1)
		for i := range big {
			big[i] = strings.Repeat("t", i+1)
		}
		NewBoundedLabels(big, "other")
	})
}
