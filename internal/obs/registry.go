package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds the exported metric series. Histograms, counters and
// integer gauges are get-or-create by name+labels: a second registration
// with the same identity returns the existing series, so package-level
// instrumentation in several packages shares one series by name, and
// repeated Authority construction in tests accumulates into it instead of
// failing or forking. GaugeFuncs replace by identity (the newest owner of
// a name+labels wins — the natural semantics when a fresh Authority
// supersedes a closed one).
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
	ints  map[string]*Int
	funcs map[string]*gaugeFunc
	helps map[string]string // metric name → help (first registration wins)
	types map[string]string // metric name → prometheus type
}

// Default is the process-wide registry every package-level constructor
// registers into, with the Go runtime gauges; GET /metrics renders it
// and nothing else.
var Default = func() *Registry {
	r := NewRegistry()
	registerRuntimeGauges(r)
	return r
}()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists: make(map[string]*Histogram),
		ints:  make(map[string]*Int),
		funcs: make(map[string]*gaugeFunc),
		helps: make(map[string]string),
		types: make(map[string]string),
	}
}

// seriesKey is the registry identity: metric name plus the canonical
// rendering of its constant labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	b.WriteString(renderLabels(labels, "", ""))
	b.WriteByte('}')
	return b.String()
}

// renderLabels renders `k1="v1",k2="v2"` with an optional extra pair
// appended (the histogram `le` bound).
func renderLabels(labels []Label, extraKey, extraVal string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	return b.String()
}

// registerName records a metric name's help and type, rejecting a type
// clash (one name cannot be both a gauge and a histogram).
func (r *Registry) registerName(name, help, typ string) {
	if existing, ok := r.types[name]; ok && existing != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, existing, typ))
	}
	r.types[name] = typ
	if _, ok := r.helps[name]; !ok {
		r.helps[name] = help
	}
}

// Histogram returns the histogram series for name+labels, creating and
// registering it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	r.registerName(name, help, "histogram")
	h := &Histogram{name: name, help: help, labels: labels, key: key}
	r.hists[key] = h
	return h
}

// Counter returns the counter series for name+labels, creating and
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Int {
	return r.integer(name, help, "counter", labels)
}

// Gauge returns the integer gauge series for name+labels, creating and
// registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Int {
	return r.integer(name, help, "gauge", labels)
}

func (r *Registry) integer(name, help, typ string, labels []Label) *Int {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.ints[key]; ok {
		return s
	}
	r.registerName(name, help, typ)
	s := &Int{name: name, labels: labels}
	r.ints[key] = s
	return s
}

// GaugeFunc registers a scrape-time sampled gauge, replacing any
// previous function registered under the same name+labels.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerName(name, help, "gauge")
	r.funcs[key] = &gaugeFunc{name: name, labels: labels, fn: fn}
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format 0.0.4, grouped by metric name (one HELP/TYPE block
// per name), names and series in sorted order for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	ints := make([]*Int, 0, len(r.ints))
	for _, s := range r.ints {
		ints = append(ints, s)
	}
	funcs := make([]*gaugeFunc, 0, len(r.funcs))
	for _, f := range r.funcs {
		funcs = append(funcs, f)
	}
	helps := make(map[string]string, len(r.helps))
	for k, v := range r.helps {
		helps[k] = v
	}
	types := make(map[string]string, len(r.types))
	for k, v := range r.types {
		types[k] = v
	}
	r.mu.Unlock()

	// Group series lines under their metric name.
	lines := make(map[string][]string)
	add := func(name, line string) { lines[name] = append(lines[name], line) }
	for _, h := range hists {
		var snap [numBuckets + 1]uint64
		var cum uint64
		for i := range snap {
			snap[i] = h.counts[i].Load()
		}
		for i := 0; i <= numBuckets; i++ {
			cum += snap[i]
			le := "+Inf"
			if i < numBuckets {
				le = strconv.FormatFloat(bucketUpperNs(i)/1e9, 'g', -1, 64)
			}
			add(h.name, fmt.Sprintf("%s_bucket{%s} %d", h.name, renderLabels(h.labels, "le", le), cum))
		}
		sum := float64(h.sumNs.Load()) / 1e9
		if len(h.labels) == 0 {
			add(h.name, fmt.Sprintf("%s_sum %g", h.name, sum))
			add(h.name, fmt.Sprintf("%s_count %d", h.name, h.count.Load()))
		} else {
			lbl := renderLabels(h.labels, "", "")
			add(h.name, fmt.Sprintf("%s_sum{%s} %g", h.name, lbl, sum))
			add(h.name, fmt.Sprintf("%s_count{%s} %d", h.name, lbl, h.count.Load()))
		}
	}
	render := func(name string, labels []Label, val any) {
		if len(labels) == 0 {
			add(name, fmt.Sprintf("%s %v", name, val))
			return
		}
		add(name, fmt.Sprintf("%s{%s} %v", name, renderLabels(labels, "", ""), val))
	}
	for _, s := range ints {
		render(s.name, s.labels, s.Value())
	}
	for _, f := range funcs {
		render(f.name, f.labels, f.fn())
	}

	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sort.Strings(lines[name])
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, helps[name], name, types[name]); err != nil {
			return err
		}
		for _, line := range lines[name] {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Package-level conveniences over Default.

// NewHistogram get-or-creates a histogram in the Default registry.
func NewHistogram(name, help string, labels ...Label) *Histogram {
	return Default.Histogram(name, help, labels...)
}

// NewCounter get-or-creates a counter in the Default registry.
func NewCounter(name, help string, labels ...Label) *Int {
	return Default.Counter(name, help, labels...)
}

// NewGauge get-or-creates an integer gauge in the Default registry.
func NewGauge(name, help string, labels ...Label) *Int {
	return Default.Gauge(name, help, labels...)
}

// RegisterGaugeFunc registers (replacing by identity) a scrape-time
// gauge in the Default registry.
func RegisterGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	Default.GaugeFunc(name, help, fn, labels...)
}
