// Pre-resolved metric bundles for the scanner's hot paths. A bundle looks
// up its labeled children once, when a scan starts, so the inner loops pay
// one atomic add per event — never a family or label lookup. Every
// constructor returns nil when the registry is nil, and the instruments'
// methods are nil-safe, so instrumented code needs no enable/disable
// branches.
package telemetry

// Metric family names shared between the instrumentation sites and the
// sinks/progress line. Keeping them in one place is what lets the progress
// line aggregate across scans without the experiment layer threading
// totals around.
const (
	// L4 sweep (internal/zmap), labeled origin/proto/trial. Unrouted
	// counts targets the FIB short-circuited as unrouted space (their
	// probes are sent-and-lost on the wire but never individually
	// evaluated); Targets-Unrouted is the routed share, the
	// routed/unrouted split tracestat and the sweep span attrs surface.
	MetricProbesSent = "zmap_probes_sent_total"
	MetricTargets    = "zmap_targets_total"
	MetricUnrouted   = "zmap_targets_unrouted_total"
	MetricBlocked    = "zmap_blocked_total"
	MetricSynAcks    = "zmap_synacks_total"
	MetricRsts       = "zmap_rsts_total"
	MetricInvalid    = "zmap_invalid_total"
	MetricDuplicates = "zmap_duplicates_total"
	MetricLost       = "zmap_probes_unanswered_total"

	// L7 grabs (internal/zgrab, internal/experiment), labeled
	// origin/proto/trial. Hosts counts replies as their slots reach the
	// grabber (it grows through the walk: the scan's total is not known
	// before it ends); HostsDone counts them once grabbed.
	MetricGrabDials      = "zgrab_dials_total"
	MetricGrabHandshakes = "zgrab_handshakes_total"
	MetricGrabRetries    = "zgrab_retries_total"
	MetricGrabFails      = "zgrab_failures_total" // + mode label
	MetricGrabHosts      = "zgrab_hosts_total"
	MetricGrabHostsDone  = "zgrab_hosts_done_total"

	// IDS detection (internal/policy), labeled ids/origin/proto/trial.
	MetricIDSActivations = "ids_activations_total"
	MetricIDSDrops       = "ids_dropped_probes_total"

	// Result sealing (internal/results), labeled origin/proto/trial.
	MetricRowsSealed  = "results_rows_sealed_total"
	MetricRowsDeduped = "results_rows_deduped_total"

	// Result spilling (the spill-to-disk store), labeled
	// origin/proto/trial. Fan-in is a gauge — the final merge's input run
	// count for that scan; the duration histogram aggregates merge wall
	// time across scans.
	MetricSpillSegments     = "results_spill_segments_total"
	MetricSpillBytes        = "results_spill_bytes_total"
	MetricSpillFlushSeconds = "results_spill_flush_seconds"
	MetricMergeFanIn        = "results_merge_fanin"
	MetricMergePasses       = "results_merge_passes"
	MetricMergeSeconds      = "results_merge_duration_seconds"

	// Study orchestration (internal/experiment).
	MetricScansTotal   = "experiment_scans_total"
	MetricScansDone    = "experiment_scans_done_total"
	MetricQueueDepth   = "experiment_queue_depth"
	MetricWorkerBusyNS = "experiment_worker_busy_ns_total"
	MetricWorkerScans  = "experiment_worker_scans_total"
)

// SweepMetrics are one scan's L4 sweep counters, mirroring zmap.Stats
// field-for-field. The sweep accumulates into its private Stats struct as
// before and flushes deltas here once per sweep batch (see
// zmap.Scanner.Run), so the per-probe path is untouched and the counters
// stay live to within one batch.
type SweepMetrics struct {
	Targets    *Counter
	Blocked    *Counter
	ProbesSent *Counter
	SynAcks    *Counter
	Rsts       *Counter
	Invalid    *Counter
	Duplicates *Counter
	// Lost counts probes that elicited no valid response at all — the
	// scanner-visible loss class (policy drop, path loss, dead address,
	// and IDS block are indistinguishable on the wire).
	Lost *Counter
	// Unrouted counts targets short-circuited by the FIB's routability
	// check. It is not a zmap.Stats field, so the scanner flushes it
	// separately from the Stats deltas.
	Unrouted *Counter
}

// NewSweepMetrics resolves the sweep counter children for one scan's
// labels. Returns nil (a no-op bundle) when r is nil.
func NewSweepMetrics(r *Registry, labels ...Label) *SweepMetrics {
	if r == nil {
		return nil
	}
	return &SweepMetrics{
		Targets:    r.Counter(MetricTargets, labels...),
		Blocked:    r.Counter(MetricBlocked, labels...),
		ProbesSent: r.Counter(MetricProbesSent, labels...),
		SynAcks:    r.Counter(MetricSynAcks, labels...),
		Rsts:       r.Counter(MetricRsts, labels...),
		Invalid:    r.Counter(MetricInvalid, labels...),
		Duplicates: r.Counter(MetricDuplicates, labels...),
		Lost:       r.Counter(MetricLost, labels...),
		Unrouted:   r.Counter(MetricUnrouted, labels...),
	}
}

// GrabMetrics are one scan's L7 counters: handshake attempts and their
// outcomes, counted per attempt by zgrab.Grabber, and host progress (the
// progress line's grab-phase rate source), counted per slot by the grab
// stage. Nothing on the grab path reads the clock for them.
type GrabMetrics struct {
	Dials      *Counter
	Handshakes *Counter
	Retries    *Counter
	// Failure modes, matching zgrab.FailMode: Refused counts refused TCP
	// connections (the MaxStartups signature under synchronized scans),
	// Resets counts connections reset after establishment (the Alibaba
	// RST-block path), Timeouts silent drops, Closed FIN-before-banner,
	// ProtoErrs non-protocol peers.
	Refused   *Counter
	Resets    *Counter
	Timeouts  *Counter
	Closed    *Counter
	ProtoErrs *Counter
	Hosts     *Gauge
	HostsDone *Counter
}

// NewGrabMetrics resolves the grab counter children for one scan's labels.
// Returns nil (a no-op bundle) when r is nil.
func NewGrabMetrics(r *Registry, labels ...Label) *GrabMetrics {
	if r == nil {
		return nil
	}
	mode := func(m string) *Counter {
		ls := append(append(make([]Label, 0, len(labels)+1), labels...), L("mode", m))
		return r.Counter(MetricGrabFails, ls...)
	}
	return &GrabMetrics{
		Dials:      r.Counter(MetricGrabDials, labels...),
		Handshakes: r.Counter(MetricGrabHandshakes, labels...),
		Retries:    r.Counter(MetricGrabRetries, labels...),
		Refused:    mode("refused"),
		Resets:     mode("reset"),
		Timeouts:   mode("timeout"),
		Closed:     mode("closed"),
		ProtoErrs:  mode("proto"),
		Hosts:      r.Gauge(MetricGrabHosts, labels...),
		HostsDone:  r.Counter(MetricGrabHostsDone, labels...),
	}
}

// IDSMetrics count one scan's IDS treatment: Activations is the number of
// (source IP) dynamic-block activations that fired mid-scan (a source
// crossing the detection threshold), Drops the probes discarded because
// their source was blocked. Labeled per IDS rule and scan.
type IDSMetrics struct {
	Activations *Counter
	Drops       *Counter
}

// NewIDSMetrics resolves the IDS counter children. Returns nil when r is
// nil.
func NewIDSMetrics(r *Registry, labels ...Label) *IDSMetrics {
	if r == nil {
		return nil
	}
	return &IDSMetrics{
		Activations: r.Counter(MetricIDSActivations, labels...),
		Drops:       r.Counter(MetricIDSDrops, labels...),
	}
}

// SealMetrics count result-store commits: rows sealed into sorted columns
// and duplicate rows dropped by Seal's keep-last dedup.
type SealMetrics struct {
	Rows    *Counter
	Deduped *Counter
}

// NewSealMetrics resolves the seal counters. Returns nil when r is nil.
func NewSealMetrics(r *Registry, labels ...Label) *SealMetrics {
	if r == nil {
		return nil
	}
	return &SealMetrics{
		Rows:    r.Counter(MetricRowsSealed, labels...),
		Deduped: r.Counter(MetricRowsDeduped, labels...),
	}
}

// SpillMetrics observe the spill-to-disk result store: segment files
// flushed, bytes spilled, the Seal merge's fan-in, and merge wall time.
// Like SealStats, the experiment layer pushes these after sealing — the
// results package stays telemetry-free.
type SpillMetrics struct {
	Segments *Counter
	Bytes    *Counter
	FanIn    *Gauge
	Passes   *Gauge
	Merge    *Histogram
	// Flush aggregates segment-write wall time (the spill store's
	// cumulative FlushDuration), distinguishing runs that are slow
	// because they merge wide from runs that are slow because the disk
	// is slow.
	Flush *Histogram
}

// NewSpillMetrics resolves the spill instruments for one scan's labels.
// Returns nil (a no-op bundle) when r is nil.
func NewSpillMetrics(r *Registry, labels ...Label) *SpillMetrics {
	if r == nil {
		return nil
	}
	return &SpillMetrics{
		Segments: r.Counter(MetricSpillSegments, labels...),
		Bytes:    r.Counter(MetricSpillBytes, labels...),
		FanIn:    r.Gauge(MetricMergeFanIn, labels...),
		Passes:   r.Gauge(MetricMergePasses, labels...),
		Merge:    r.Histogram(MetricMergeSeconds, DurationBuckets, labels...),
		Flush:    r.Histogram(MetricSpillFlushSeconds, DurationBuckets, labels...),
	}
}
