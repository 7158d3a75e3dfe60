// Package obs is the serving stack's zero-dependency observability
// plane: a Prometheus-text-format metric registry whose every value is
// collected live from the owning subsystem's books at scrape time (so
// the exposition can never drift from the code), and a bounded
// structured event log recording control-plane decisions — QoS
// controller retunes, admission sheds, replica ejections and
// re-admissions — queryable over HTTP and embeddable in BENCH reports
// so load runs can assert on control behavior instead of anecdotes.
// The paper's "21st century" agenda makes cross-layer visibility a
// first-class requirement; this package is that requirement applied to
// the serving stack itself.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"repro/internal/httpapi"
)

// MetricType is a metric's exposition TYPE.
type MetricType string

// The exposition types the registry emits.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// nameRE is the promlint-clean metric/label name charset: lowercase
// snake_case, starting with a letter. (Prometheus itself also allows
// colons and uppercase; this registry deliberately enforces the
// stricter house style so promlint never flags an arch21 exposition.)
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Sample is one labeled scalar observation of a counter or gauge
// metric. Values aligns positionally with the metric's declared label
// names; an unlabeled metric uses a single Sample with nil Values.
type Sample struct {
	// Values are the label values, aligned with the metric's label names.
	Values []string
	// Value is the sample's current value.
	Value float64
}

// HistSample is one labeled histogram series: cumulative bucket counts
// for each upper bound (excluding +Inf, whose cumulative count is
// Count), plus the exact count and sum.
type HistSample struct {
	// Values are the label values, aligned with the metric's label names.
	Values []string
	// Bounds are the bucket upper bounds, strictly increasing, in the
	// metric's base unit (seconds for latency histograms).
	Bounds []float64
	// CumCounts[i] counts observations <= Bounds[i] (cumulative —
	// exactly what the `le` exposition buckets carry).
	CumCounts []uint64
	// Count and Sum are the exact observation count and value sum (the
	// `+Inf` bucket equals Count).
	Count uint64
	Sum   float64
}

// metric is one registered family.
type metric struct {
	name, help string
	typ        MetricType
	labels     []string
	collect    func() []Sample
	collectH   func() []HistSample
}

// Registry is an ordered set of metric families exposed in Prometheus
// text format. Registration happens once at construction time (and
// panics on a malformed or duplicate name — drift is a programming
// error, caught at boot and by the promlint test); collection happens
// at every scrape through the registered closures.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

// register validates and appends one family.
func (r *Registry) register(m *metric) {
	if !nameRE.MatchString(m.name) {
		panic(fmt.Sprintf("obs: metric name %q is not promlint-clean (want %s)", m.name, nameRE))
	}
	if m.typ == TypeCounter && !strings.HasSuffix(m.name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total", m.name))
	}
	if m.typ != TypeCounter && strings.HasSuffix(m.name, "_total") {
		panic(fmt.Sprintf("obs: non-counter %q must not end in _total", m.name))
	}
	if m.help == "" {
		panic(fmt.Sprintf("obs: metric %q has no help text", m.name))
	}
	for _, l := range m.labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %q label %q is not promlint-clean", m.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.byName[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers an unlabeled counter collected via fn at scrape
// time. The name must end in _total.
func (r *Registry) Counter(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: TypeCounter,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// Gauge registers an unlabeled gauge collected via fn at scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: TypeGauge,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// CounterVec registers a labeled counter family; fn returns one Sample
// per live label combination at scrape time.
func (r *Registry) CounterVec(name, help string, labels []string, fn func() []Sample) {
	r.register(&metric{name: name, help: help, typ: TypeCounter, labels: labels, collect: fn})
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels []string, fn func() []Sample) {
	r.register(&metric{name: name, help: help, typ: TypeGauge, labels: labels, collect: fn})
}

// Histogram registers a (possibly labeled) histogram family; fn returns
// one HistSample per live label combination at scrape time.
func (r *Registry) Histogram(name, help string, labels []string, fn func() []HistSample) {
	r.register(&metric{name: name, help: help, typ: TypeHistogram, labels: labels, collectH: fn})
}

// Family is one registered family's (name, type, help, labels) row;
// DESIGN.md §9's metric table is generated from them.
type Family struct {
	Name   string
	Type   MetricType
	Help   string
	Labels []string
}

// Families lists every registered family in registration order.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, Family{Name: m.name, Type: m.typ, Help: m.help, Labels: m.labels})
	}
	return out
}

// formatValue renders a sample value the way Prometheus text format
// expects (shortest round-trip representation).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelPairs renders {k="v",...} for aligned names/values; extra is an
// optional trailing pair (the histogram `le` bound).
func labelPairs(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(val))
		b.WriteString(`"`)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders the full exposition: every family's HELP and TYPE
// line followed by its samples, collected live.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		if m.typ == TypeHistogram {
			for _, hs := range m.collectH() {
				cum := uint64(0)
				for i, bound := range hs.Bounds {
					if i < len(hs.CumCounts) {
						cum = hs.CumCounts[i]
					}
					le := formatValue(bound)
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name,
						labelPairs(m.labels, hs.Values, "le", le), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name,
					labelPairs(m.labels, hs.Values, "le", "+Inf"), hs.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name,
					labelPairs(m.labels, hs.Values, "", ""), formatValue(hs.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name,
					labelPairs(m.labels, hs.Values, "", ""), hs.Count); err != nil {
					return err
				}
			}
			continue
		}
		for _, s := range m.collect() {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name,
				labelPairs(m.labels, s.Values, "", ""), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves GET /metrics in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			httpapi.WriteError(w, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed, "method not allowed")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
