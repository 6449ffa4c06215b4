package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDecl is one metric the benchmark prints. target and on record
// which end-to-end metric a per-layer metric should move, on which
// workloads, so a later change can say where its saving should appear.
type metricDecl struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	target string  // per-layer only
	on     string  // per-layer only
}

// endToEnd are the metrics a user of the crawl sees, measured with tracing
// off. Their bounds rest on the run-to-run spread recorded in README.md.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sites_per_s", unit: "sites/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_site", unit: "ms", better: "lower", bound: 0.25},
	{name: "report_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_heap_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "journal_bytes_per_site", unit: "B", better: "lower", bound: 0.1},
	{name: "ok_frac", unit: "ratio", better: "higher", bound: 0.1},
	{name: "field_recall", unit: "ratio", better: "higher", bound: 0.1},
}

const (
	allWL     = "all"
	cloneWL   = "clone-triage"
	hostileWL = "hostile-feed"
)

// perLayer are the traced run's metrics, each with the end-to-end metric
// it should move and the workloads where it should. Costs improve by going
// down; the shares of work a cheaper path absorbs improve by going up.
var perLayer = []metricDecl{
	{name: "textclass.train_s", unit: "s", better: "lower", target: "setup_s", on: allWL},
	{name: "vision.train_s", unit: "s", better: "lower", target: "setup_s", on: allWL},
	{name: "termclass.train_s", unit: "s", better: "lower", target: "setup_s", on: allWL},
	{name: "visualphish.gallery_s", unit: "s", better: "lower", target: "setup_s", on: allWL},

	{name: "sitegen.generate_s", unit: "s", better: "lower", target: "sites_per_s", on: allWL},
	{name: "triage.plan_s", unit: "s", better: "lower", target: "sites_per_s", on: cloneWL},
	{name: "triage.probes_per_site", unit: "count", better: "lower", target: "sites_per_s", on: cloneWL},
	{name: "triage.fastpath_frac", unit: "ratio", better: "higher", target: "sites_per_s,field_recall", on: cloneWL},

	{name: "farm.busy_frac", unit: "ratio", better: "higher", target: "sites_per_s,ok_frac", on: hostileWL},
	{name: "farm.retries_per_site", unit: "count", better: "lower", target: "sites_per_s,ok_frac", on: hostileWL},
	{name: "farm.cloak_attempts_per_site", unit: "count", better: "lower", target: "sites_per_s,ok_frac", on: hostileWL},
	{name: "farm.gave_up_frac", unit: "ratio", better: "lower", target: "ok_frac", on: hostileWL},

	{name: "phishserver.requests_per_site", unit: "count", better: "lower", target: "sites_per_s", on: allWL},
	{name: "phishserver.serve_ms_p50", unit: "ms", better: "lower", target: "sites_per_s", on: allWL},
	{name: "phishserver.serve_ms_p99", unit: "ms", better: "lower", target: "sites_per_s", on: allWL},
	{name: "phishserver.share", unit: "ratio", better: "lower", target: "sites_per_s", on: allWL},
	{name: "chaos.wait_ms_per_site", unit: "ms", better: "lower", target: "sites_per_s", on: hostileWL},

	{name: "crawler.session_ms_p50", unit: "ms", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "crawler.session_ms_p99", unit: "ms", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "crawler.pages_per_site", unit: "count", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "crawler.fields_per_site", unit: "count", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "crawler.ocr_page_frac", unit: "ratio", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "dom.parse_us_per_page", unit: "us", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: allWL},
	{name: "layout.compute_us_per_page", unit: "us", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "render.render_ms_per_page", unit: "ms", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: allWL},
	{name: "ocr.recognize_ms_per_page", unit: "ms", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "vision.detect_ms_per_page", unit: "ms", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "visualphish.embed_us_per_page", unit: "us", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: allWL},
	{name: "textclass.predict_us_per_field", unit: "us", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},
	{name: "crawler.residual_frac", unit: "ratio", better: "lower", target: "sites_per_s,cpu_ms_per_site", on: hostileWL},

	{name: "journal.append_us_per_record", unit: "us", better: "lower", target: "report_s,sites_per_s", on: hostileWL},
	{name: "journal.bytes_per_record", unit: "B", better: "lower", target: "journal_bytes_per_site", on: allWL},
	{name: "journal.open_s", unit: "s", better: "lower", target: "report_s", on: allWL},
	{name: "journal.sessions_s", unit: "s", better: "lower", target: "report_s", on: allWL},
	{name: "analysis.tables_ms", unit: "ms", better: "lower", target: "report_s", on: allWL},

	{name: "runtime.alloc_kb_per_site", unit: "KB", better: "lower", target: "cpu_ms_per_site", on: allWL},
	{name: "runtime.mallocs_per_site", unit: "count", better: "lower", target: "cpu_ms_per_site", on: allWL},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", target: "cpu_ms_per_site", on: allWL},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult collects exactly the declared metrics from got, in units of
// the declaration; a declared metric missing from got is a bug.
func newResult(decls []metricDecl, got map[string]float64) (result, error) {
	r := result{Metrics: map[string]value{}}
	for _, d := range decls {
		v, ok := got[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return r, nil
}

// writeTable prints metrics by name with their units, one per line, and
// for a per-layer metric the end-to-end metric it should move.
func writeTable(w io.Writer, decls []metricDecl, got map[string]float64) {
	for _, d := range decls {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s", d.name, got[d.name], d.unit)
		if d.target != "" {
			fmt.Fprintf(w, " -> %s on %s", d.target, d.on)
		}
		fmt.Fprintln(w)
	}
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
