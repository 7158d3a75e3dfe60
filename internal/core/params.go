package core

// Typed experiment parameters. An Experiment may declare a schema of named
// knobs (ParamSpec); callers pass assignments as a Params map and the
// registry resolves them — filling defaults, rejecting unknown names, and
// range-checking every value — before the experiment runs. The resolved
// assignment also has a canonical string form (CacheKey) so the serve
// subsystem can memoize each grid point independently, and so that a
// default-valued assignment shares its cache entry with the zero-param
// path.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParamKind is the type of a declared parameter.
type ParamKind uint8

const (
	// IntParam values must be integral (they are still carried as
	// float64 inside Params).
	IntParam ParamKind = iota
	// FloatParam values are arbitrary reals within the declared range.
	FloatParam
)

// String names the kind ("int" or "float").
func (k ParamKind) String() string {
	switch k {
	case IntParam:
		return "int"
	case FloatParam:
		return "float"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParamSpec declares one experiment knob: its name, kind, default, and
// inclusive range.
type ParamSpec struct {
	// Name is the knob's identifier (lower_snake_case).
	Name string
	// Kind constrains the value domain.
	Kind ParamKind
	// Default is the value used when the caller omits the parameter. It
	// must lie within [Min, Max].
	Default float64
	// Min and Max bound accepted values (inclusive).
	Min, Max float64
	// Step, when nonzero, further restricts values to Min + k*Step —
	// e.g. matrix dimensions that every blocking factor must divide.
	Step float64
	// Doc is a one-line description for CLIs and the HTTP API.
	Doc string
}

// Check validates one value against the spec's range, kind, and step.
func (s ParamSpec) Check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: parameter %s: value must be finite, got %v", s.Name, v)
	}
	if v < s.Min || v > s.Max {
		return fmt.Errorf("core: parameter %s: %s out of range [%s, %s]",
			s.Name, FormatParamValue(v), FormatParamValue(s.Min), FormatParamValue(s.Max))
	}
	if s.Kind == IntParam && v != math.Trunc(v) {
		return fmt.Errorf("core: parameter %s: must be an integer, got %s",
			s.Name, FormatParamValue(v))
	}
	if s.Step > 0 {
		r := math.Mod(v-s.Min, s.Step)
		if r > 1e-9 && s.Step-r > 1e-9 {
			return fmt.Errorf("core: parameter %s: %s is not %s + a multiple of %s",
				s.Name, FormatParamValue(v), FormatParamValue(s.Min), FormatParamValue(s.Step))
		}
	}
	return nil
}

// String renders the spec compactly, e.g. "gens:int[1..12]=6" (stepped
// ranges read "n:int[32..256/32]=96"). DESIGN.md's per-experiment index
// is generated with exactly this form, so changing the format changes
// that block too.
func (s ParamSpec) String() string {
	rng := fmt.Sprintf("[%s..%s]", FormatParamValue(s.Min), FormatParamValue(s.Max))
	if s.Step > 0 {
		rng = fmt.Sprintf("[%s..%s/%s]", FormatParamValue(s.Min),
			FormatParamValue(s.Max), FormatParamValue(s.Step))
	}
	return fmt.Sprintf("%s:%s%s=%s", s.Name, s.Kind, rng, FormatParamValue(s.Default))
}

// validateSpecs panics on malformed schemas; called at registration so a
// bad schema fails at init, not at first use.
func validateSpecs(id string, specs []ParamSpec) {
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || strings.ContainsAny(s.Name, "=,:&? \t\n") {
			panic(fmt.Sprintf("core: %s: invalid parameter name %q", id, s.Name))
		}
		if seen[s.Name] {
			panic(fmt.Sprintf("core: %s: duplicate parameter %s", id, s.Name))
		}
		seen[s.Name] = true
		if s.Min > s.Max {
			panic(fmt.Sprintf("core: %s: parameter %s has min > max", id, s.Name))
		}
		if err := s.Check(s.Default); err != nil {
			panic(fmt.Sprintf("core: %s: default invalid: %v", id, err))
		}
	}
}

// Params is a parameter assignment: knob name to value. Int-kind values are
// carried as integral float64s.
type Params map[string]float64

// Int returns a parameter as an int. It panics when the name is absent —
// experiment run functions only ever see resolved assignments, so a miss
// is a registry bug, not an input error.
func (p Params) Int(name string) int {
	return int(p.mustGet(name))
}

// Float returns a parameter as a float64, with the same contract as Int.
func (p Params) Float(name string) float64 {
	return p.mustGet(name)
}

func (p Params) mustGet(name string) float64 {
	v, ok := p[name]
	if !ok {
		panic("core: parameter " + name + " not resolved")
	}
	return v
}

// FormatParamValue renders a parameter value canonically (shortest
// round-trippable decimal), so cache keys and rendered schemas are stable.
func FormatParamValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseParamValue parses a canonical parameter value.
func ParseParamValue(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// Spec looks up one declared parameter by name.
func (e Experiment) Spec(name string) (ParamSpec, bool) {
	for _, s := range e.Params {
		if s.Name == name {
			return s, true
		}
	}
	return ParamSpec{}, false
}

// ResolveParams validates an assignment against the schema and fills in
// defaults for omitted knobs, in one pass into one map. Unknown names and
// out-of-range values are errors (an unknown name first, the first in
// sorted order; then the first bad value in schema order); the input map
// is not modified.
func (e Experiment) ResolveParams(p Params) (Params, error) {
	var resolved Params
	if len(e.Params) > 0 {
		resolved = make(Params, len(e.Params))
	}
	var bad error
	named := 0
	for _, s := range e.Params {
		v, ok := p[s.Name]
		if !ok {
			v = s.Default
		} else {
			named++
			if bad == nil {
				bad = s.Check(v)
			}
		}
		resolved[s.Name] = v
	}
	if named < len(p) {
		for _, name := range p.SortedNames() {
			if _, ok := e.Spec(name); !ok {
				return nil, fmt.Errorf("core: experiment %s has no parameter %q (schema: %s)",
					e.ID, name, e.SchemaString())
			}
		}
	}
	if bad != nil {
		return nil, fmt.Errorf("core: experiment %s: %w", e.ID, bad)
	}
	return resolved, nil
}

// Complete reports whether p already is a resolved assignment: it names
// every declared parameter, nothing else, each with a valid value.
// ResolveParams would return an equal map, so a caller that only reads the
// assignment (RunWith, the serve engine's miss pass) can use p as it is.
func (e Experiment) Complete(p Params) bool {
	if len(p) != len(e.Params) {
		return false
	}
	for _, s := range e.Params {
		if v, ok := p[s.Name]; !ok || s.Check(v) != nil {
			return false
		}
	}
	return true
}

// SchemaString renders the whole schema, e.g. "gens:int[1..12]=6" or
// "(no parameters)".
func (e Experiment) SchemaString() string {
	if len(e.Params) == 0 {
		return "(no parameters)"
	}
	parts := make([]string, len(e.Params))
	for i, s := range e.Params {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// RunWith executes the experiment under the given assignment (nil or empty
// means all defaults). Zero-parameter experiments accept only an empty
// assignment. The resolved, validated assignment is returned alongside the
// result so callers (the serve engine, sweep aggregation) can key on it; an
// assignment that is already resolved is used, and returned, as it is.
//
// The context is checked before the run and again after it: an experiment
// that returns early because ctx fired mid-run (E5, E11 check at
// iteration boundaries) yields an incomplete Result, which RunWith
// discards in favor of ctx.Err() — a canceled request can never be
// mistaken for (or memoized as) a real result.
func (e Experiment) RunWith(ctx context.Context, p Params) (Result, Params, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, err
	}
	if len(e.Params) == 0 {
		if len(p) > 0 {
			return Result{}, nil, fmt.Errorf("core: experiment %s takes no parameters", e.ID)
		}
		p = nil
	}
	resolved := p // an already-resolved assignment (the serve engine's) is not rebuilt
	if !e.Complete(p) {
		var err error
		if resolved, err = e.ResolveParams(p); err != nil {
			return Result{}, nil, err
		}
	}
	res := e.Run(ctx, resolved)
	if err := ctx.Err(); err != nil {
		return Result{}, nil, err
	}
	return res, resolved, nil
}

// CacheKey derives the memoization key for one (experiment, assignment)
// pair: the bare ID when every resolved value equals its default (so
// explicit-default requests share the zero-param cache entry), otherwise
// the ID plus the non-default assignments in schema order, e.g.
// "E7?bces=512&f=0.99". The assignment should already be resolved; missing
// names are treated as defaults.
func (e Experiment) CacheKey(resolved Params) string {
	var buf [96]byte // a few assignments format on the stack: one allocation, the key
	b := append(buf[:0], e.ID...)
	sep := byte('?')
	for _, s := range e.Params {
		v, ok := resolved[s.Name]
		if !ok || v == s.Default {
			continue
		}
		b = append(append(append(b, sep), s.Name...), '=')
		b = strconv.AppendFloat(b, v, 'g', -1, 64) // FormatParamValue's form
		sep = '&'
	}
	if len(b) == len(e.ID) {
		return e.ID
	}
	return string(b)
}

// ParseParams parses "name=value" assignments (one per element) against no
// particular schema — values are canonical floats. Order is irrelevant;
// resolution against a schema happens later.
func ParseParams(assignments []string) (Params, error) {
	if len(assignments) == 0 {
		return nil, nil
	}
	p := make(Params, len(assignments))
	for _, a := range assignments {
		name, val, ok := strings.Cut(a, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("core: bad parameter assignment %q (want name=value)", a)
		}
		v, err := ParseParamValue(val)
		if err != nil {
			return nil, fmt.Errorf("core: bad value in %q: %v", a, err)
		}
		if _, dup := p[name]; dup {
			return nil, fmt.Errorf("core: parameter %s assigned twice", name)
		}
		p[name] = v
	}
	return p, nil
}

// SortedNames returns the assignment's names sorted, for deterministic
// rendering of ad-hoc (unresolved) assignments.
func (p Params) SortedNames() []string {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Assignments renders the assignment as sorted "name=value" strings — the
// form ParseParams accepts and the HTTP API's repeated ?param= query takes
// — so load generators and clients can reconstruct a request for any
// Params deterministically. Nil and empty assignments yield nil.
func (p Params) Assignments() []string {
	if len(p) == 0 {
		return nil
	}
	names := p.SortedNames()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + "=" + FormatParamValue(p[n])
	}
	return out
}
