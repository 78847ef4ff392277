// Package cloudsim models the performance and dollar cost of queries that
// move data between the simulated S3 store and the compute node.
//
// Why a model: the paper's headline results (Figures 1–10) are data-movement
// effects measured on real AWS — a 10 GigE network between an r4.8xlarge
// EC2 instance and S3, S3-side scan parallelism across object partitions,
// and Python-level per-request CPU overheads. Running everything in one
// process erases those bottlenecks, so PushdownDB-Go executes queries for
// real (verifying answers) while every S3 interaction is *accounted* here
// under a deterministic virtual clock. The model is the classic bottleneck
// (roofline) composition: a query is a sequence of stages; concurrent
// phases within a stage overlap; each phase's duration is the maximum of
// its storage-side time, its network transfer time and its server-side CPU
// time.
//
// Calibration: the constants in DefaultConfig are fitted once against the
// absolute runtimes the paper reports (Section III: r4.8xlarge, 32 cores,
// 10 GigE, 10 GB TPC-H CSV in 32-way partitioned objects) and are shared by
// every experiment — no per-figure tuning. The resulting figures are pinned
// under internal/harness/testdata/golden; Fig10's note sets its factors
// beside the paper's.
package cloudsim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"pushdowndb/internal/obs"
)

// Pricing holds the US-East prices from Section II-B of the paper.
type Pricing struct {
	ScanPerGB      float64 // S3 Select data scanned
	ReturnPerGB    float64 // S3 Select data returned
	TransferPerGB  float64 // plain GET egress (0 within region)
	RequestPer1000 float64 // HTTP GET/Select requests
	ComputePerHour float64 // EC2 instance (r4.8xlarge)
}

// DefaultPricing returns the paper's prices.
func DefaultPricing() Pricing {
	return Pricing{
		ScanPerGB:      0.002,
		ReturnPerGB:    0.0007,
		TransferPerGB:  0, // same-region transfer is free
		RequestPer1000: 0.0004,
		ComputePerHour: 2.128,
	}
}

// ComputationAwarePricing implements the paper's Suggestion 5: scanning is
// charged in proportion to how much storage-side computation the request
// actually performs, instead of a flat per-GB rate. Light scans (plain
// projections) pay baseFraction of the list price; heavier expressions ramp
// up to the full price.
type ComputationAwarePricing struct {
	Pricing
	// BaseFraction is the share of ScanPerGB charged for a scan that does
	// no per-row computation (pure projection).
	BaseFraction float64
	// NodesAtFullPrice is the per-row expression node count at which the
	// full ScanPerGB applies.
	NodesAtFullPrice float64
}

// DefaultComputationAwarePricing charges 25% of list price for plain scans.
func DefaultComputationAwarePricing() ComputationAwarePricing {
	return ComputationAwarePricing{
		Pricing:          DefaultPricing(),
		BaseFraction:     0.25,
		NodesAtFullPrice: 64,
	}
}

// Config holds the performance-model constants.
type Config struct {
	// Cores on the compute node (r4.8xlarge has 32 physical cores).
	Cores int
	// Workers is how many goroutines the server's local operators spread
	// their row work across (hash join build/probe, group-by partials,
	// filter, top-K heaps, CSV decode). The budget is capped at Cores;
	// 0 or 1 means sequential execution, the configuration the other
	// constants were calibrated against. The parallelizable server terms
	// of the bottleneck model — bulk parse, select-response parse and
	// per-row work — divide their wall-clock by WorkerBudget() while the
	// total CPU seconds consumed stay the same; request issuance stays
	// serial.
	Workers int
	// RequestRTTSec is the latency of one S3 HTTP round trip.
	RequestRTTSec float64
	// S3ScanBytesPerSec is the per-partition raw IO rate of an S3 Select
	// scan. Together with S3CellSecPerCell it is fitted so a 32-way-
	// partitioned 7.25 GB lineitem S3-side filter takes ~7.5 s (Fig. 1a).
	S3ScanBytesPerSec float64
	// S3CellSecPerCell is the per-partition cost of materializing one
	// column value during a scan. CSV scans decode every cell of every
	// row; columnar scans decode only referenced columns — this term is
	// why Parquet wins on narrow queries (Fig. 11) but only modestly on
	// TPC-H (Section IX).
	S3CellSecPerCell float64
	// S3DecompressBytesPerSec is the per-partition inflate rate for
	// compressed columnar chunks.
	S3DecompressBytesPerSec float64
	// S3NodeSecPerRow is the storage-side cost of evaluating one
	// expression AST node over one row. Fitted so the Fig. 5 S3-side
	// group-by crosses filtered group-by between 8 and 32 groups.
	S3NodeSecPerRow float64
	// NetworkBytesPerSec is the compute node's NIC (10 GigE).
	NetworkBytesPerSec float64
	// BulkParseBytesPerSec is the node-aggregate rate at which the server
	// ingests whole objects fetched with plain GETs (Pandas CSV path).
	// Fitted so a server-side filter over 7.25 GB takes ~72 s (Fig. 1a).
	BulkParseBytesPerSec float64
	// SelectParseBytesPerSec is the node-aggregate rate for ingesting
	// S3 Select responses (event-stream framing reassembled in Python is
	// slower than the bulk path). Fitted to Fig. 5's filtered group-by.
	SelectParseBytesPerSec float64
	// RequestCPUSec is the node-aggregate CPU cost of issuing one HTTP
	// request. Fitted to the Fig. 1 indexing degradation past 1e-4.
	RequestCPUSec float64
	// RowWorkSecPerRow is the node-aggregate cost of one unit of row work
	// (hash build/probe, heap push, group update).
	RowWorkSecPerRow float64
	// RangedGetSecPerRange is the per-discontiguous-range overhead of a
	// batched multi-range GET (Suggestion 1): storage-side seek and
	// response framing plus server-side part reassembly, paid per range
	// even when thousands of ranges share one HTTP request. This is what
	// makes the IndexScan strategy degrade as its predicate loosens — the
	// range count scales with matched rows — while staying far below
	// RequestCPUSec, the cost of a whole per-row request.
	RangedGetSecPerRange float64
}

// WorkerBudget is the effective server-side parallelism: Workers clamped
// to [1, Cores].
func (c Config) WorkerBudget() int {
	w := c.Workers
	if w < 1 {
		w = 1
	}
	if c.Cores > 0 && w > c.Cores {
		w = c.Cores
	}
	return w
}

// DefaultConfig returns the calibrated model (see field comments).
func DefaultConfig() Config {
	return Config{
		Cores:                   32,
		Workers:                 1,
		RequestRTTSec:           0.010,
		S3ScanBytesPerSec:       200e6,
		S3CellSecPerCell:        2.1e-7,
		S3DecompressBytesPerSec: 80e6,
		S3NodeSecPerRow:         2.5e-8,
		NetworkBytesPerSec:      1.25e9,
		BulkParseBytesPerSec:    100e6,
		SelectParseBytesPerSec:  80e6,
		RequestCPUSec:           0.0005,
		RowWorkSecPerRow:        2e-7,
		RangedGetSecPerRange:    2e-5,
	}
}

// Phase accumulates the activity of one pipeline phase (e.g. "build side
// load", "probe side scan"). Phases in the same Stage overlap in time;
// stages execute sequentially.
type Phase struct {
	Name  string
	Stage int
	// cfg is the metrics' config with the phase's backend profile applied
	// (network bandwidth, request RTT).
	cfg Config
	// profile is the backend profile the phase's requests run against; the
	// zero profile prices at the metrics' base Pricing.
	profile Profile
	scale   Scale

	mu                sync.Mutex
	requests          int64 // bulk requests (scans, whole/partition GETs)
	rowFetchRequests  int64 // per-row GETs (index strategy): these scale with data
	rangedRanges      int64 // discontiguous ranges inside batched multi-range GETs
	scanBytes         int64 // S3 Select bytes scanned
	selectReturnBytes int64 // S3 Select bytes returned
	getBytes          int64 // plain GET bytes returned
	cacheHits         int64 // select responses served from the result cache
	cacheReturnBytes  int64 // response bytes served from the result cache
	catalogRequests   int64 // fixed-size catalog GETs and their bytes: billed
	catalogBytes      int64 // unscaled, timed when added (AddCatalogRequest)
	// Shared-scan accounting (scanshare): billing counters carry this
	// query's 1/sharers slice of each shared pass, while sharedWireBytes
	// carries the full pass response — the query still receives and
	// parses every merged byte even though it only pays its share.
	sharedRequests    float64
	sharedScanBytes   float64
	sharedReturnBytes float64
	sharedWireBytes   int64
	s3MaxStreamSec    float64
	serverExtraSec    float64
	serverRows        int64
}

// SelectReq describes one S3 Select request for accounting: scanned
// object bytes, returned (encoded) bytes, rows scanned, per-row expression
// node count, column cells materialized, and raw bytes inflated from
// compressed chunks.
type SelectReq struct {
	ScanBytes       int64
	ReturnedBytes   int64
	Rows            int64
	ExprNodes       int64
	Cells           int64
	DecompressBytes int64
}

// AddSelectRequest records one S3 Select request against this phase. The
// storage-side stream time is IO + cell materialization + decompression +
// per-row expression evaluation, all at per-partition scale.
func (p *Phase) AddSelectRequest(r SelectReq) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	p.scanBytes += r.ScanBytes
	p.selectReturnBytes += r.ReturnedBytes
	pp := p.scale.perPartition()
	t := p.cfg.RequestRTTSec +
		float64(r.ScanBytes)*pp/p.cfg.S3ScanBytesPerSec +
		float64(r.Cells)*pp*p.cfg.S3CellSecPerCell +
		float64(r.DecompressBytes)*pp/p.cfg.S3DecompressBytesPerSec +
		float64(r.Rows)*pp*float64(r.ExprNodes)*p.cfg.S3NodeSecPerRow
	if t > p.s3MaxStreamSec {
		p.s3MaxStreamSec = t
	}
}

// AddSharedSelectRequest records this query's participation in one S3
// Select pass shared by `sharers` concurrent queries (scanshare): the
// storage side ran the pass once, so each sharer is billed 1/sharers of
// its request, scan and return volume — every sharer records the same
// pass with the same count, so the fleet's total equals exactly one
// direct pass. Time is not divided: the storage stream ran in full
// before any sharer's rows existed, the whole merged response crossed
// the network to the node, and localRows counts the merged rows this
// query re-filtered locally at server row-work rates (zero for unmerged
// singleflight shares).
func (p *Phase) AddSharedSelectRequest(r SelectReq, sharers, localRows int64) {
	if sharers <= 1 {
		p.AddSelectRequest(r)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	share := float64(sharers)
	p.sharedRequests += 1 / share
	p.sharedScanBytes += float64(r.ScanBytes) / share
	p.sharedReturnBytes += float64(r.ReturnedBytes) / share
	p.sharedWireBytes += r.ReturnedBytes
	p.serverRows += localRows
	pp := p.scale.perPartition()
	t := p.cfg.RequestRTTSec +
		float64(r.ScanBytes)*pp/p.cfg.S3ScanBytesPerSec +
		float64(r.Cells)*pp*p.cfg.S3CellSecPerCell +
		float64(r.DecompressBytes)*pp/p.cfg.S3DecompressBytesPerSec +
		float64(r.Rows)*pp*float64(r.ExprNodes)*p.cfg.S3NodeSecPerRow
	if t > p.s3MaxStreamSec {
		p.s3MaxStreamSec = t
	}
}

// AddCacheHit records one S3 Select response served from the compute-tier
// result cache instead of the backend: no storage request is issued, no
// bytes cross the network and nothing is billed — the server only re-parses
// the cached response bytes at local bandwidth. This is what makes a warm
// cached scan the cheapest scan of all in the cost model.
func (p *Phase) AddCacheHit(returnedBytes int64) {
	p.mu.Lock()
	p.cacheHits++
	p.cacheReturnBytes += returnedBytes
	p.mu.Unlock()
}

// AddGetRequest records one bulk GET (a whole partition or a batched
// multi-range fetch) returning n bytes.
func (p *Phase) AddGetRequest(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	p.getBytes += n
	t := p.cfg.RequestRTTSec + float64(n)*p.scale.perPartition()/p.cfg.NetworkBytesPerSec
	if t > p.s3MaxStreamSec {
		p.s3MaxStreamSec = t
	}
}

// AddCatalogRequest records one GET of a fixed-size catalog object (a
// table's statistics object) returning n bytes. A 2048-row sample is as
// large at SF 10 as at SF 0.01, so nothing here is multiplied by the Scale:
// a round trip plus n bytes on the stream, n bytes of bulk parse plus one
// request issue on the server, one request and n bytes on the bill.
func (p *Phase) AddCatalogRequest(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.catalogRequests++
	p.catalogBytes += n
	p.serverExtraSec += float64(n)/p.cfg.BulkParseBytesPerSec + p.cfg.RequestCPUSec
	t := p.cfg.RequestRTTSec + float64(n)/p.cfg.NetworkBytesPerSec
	if t > p.s3MaxStreamSec {
		p.s3MaxStreamSec = t
	}
}

// AddRowFetchRequest records one per-row ranged GET returning n bytes (the
// Section IV-A index strategy). Unlike bulk requests, the number of these
// scales with the data: their request-CPU and request-pricing terms are
// multiplied by the data ratio.
func (p *Phase) AddRowFetchRequest(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rowFetchRequests++
	p.getBytes += n
	if p.cfg.RequestRTTSec > p.s3MaxStreamSec {
		p.s3MaxStreamSec = p.cfg.RequestRTTSec
	}
}

// AddRangedGetRequest records one batched multi-range GET returning n
// bytes across nRanges discontiguous byte ranges (the IndexScan strategy's
// fetch, Suggestion 1). The batch envelope is a bulk request — like a
// partition GET, it does not scale with the data ratio — while every range
// inside it pays RangedGetSecPerRange on both the storage stream (seek +
// framing) and the server (part reassembly), scaled with the data: the
// range count is exactly what grows with matching rows.
func (p *Phase) AddRangedGetRequest(n, nRanges int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	p.rangedRanges += nRanges
	p.getBytes += n
	pp := p.scale.perPartition()
	t := p.cfg.RequestRTTSec +
		float64(n)*pp/p.cfg.NetworkBytesPerSec +
		float64(nRanges)*pp*p.cfg.RangedGetSecPerRange
	if t > p.s3MaxStreamSec {
		p.s3MaxStreamSec = t
	}
}

// AddServerRows records n units of server-side row work.
func (p *Phase) AddServerRows(n int64) {
	p.mu.Lock()
	p.serverRows += n
	p.mu.Unlock()
}

// AddServerSeconds records explicit server-side CPU seconds.
func (p *Phase) AddServerSeconds(s float64) {
	p.mu.Lock()
	p.serverExtraSec += s
	p.mu.Unlock()
}

// snapshot returns a copy of the accumulated counters.
func (p *Phase) snapshot() phaseTotals {
	p.mu.Lock()
	defer p.mu.Unlock()
	return phaseTotals{
		requests:          p.requests,
		rowFetchRequests:  p.rowFetchRequests,
		rangedRanges:      p.rangedRanges,
		scanBytes:         p.scanBytes,
		selectReturnBytes: p.selectReturnBytes,
		getBytes:          p.getBytes,
		cacheHits:         p.cacheHits,
		cacheReturnBytes:  p.cacheReturnBytes,
		catalogRequests:   p.catalogRequests,
		catalogBytes:      p.catalogBytes,
		sharedRequests:    p.sharedRequests,
		sharedScanBytes:   p.sharedScanBytes,
		sharedReturnBytes: p.sharedReturnBytes,
		sharedWireBytes:   p.sharedWireBytes,
		s3MaxStreamSec:    p.s3MaxStreamSec,
		serverExtraSec:    p.serverExtraSec,
		serverRows:        p.serverRows,
	}
}

type phaseTotals struct {
	requests          int64
	rowFetchRequests  int64
	rangedRanges      int64
	scanBytes         int64
	selectReturnBytes int64
	getBytes          int64
	cacheHits         int64
	cacheReturnBytes  int64
	catalogRequests   int64
	catalogBytes      int64
	sharedRequests    float64
	sharedScanBytes   float64
	sharedReturnBytes float64
	sharedWireBytes   int64
	s3MaxStreamSec    float64
	serverExtraSec    float64
	serverRows        int64
}

// seconds evaluates the phase duration under the bottleneck model at the
// given scale. Server-side work that the engine partitions across worker
// goroutines — parsing fetched bytes and per-row operator work — divides
// its wall-clock by the worker budget (full CPU seconds are still spent,
// across more cores); request issuance and explicit extra seconds remain
// serial. Per-row work is priced as fully parallelizable: the engine's
// only serial per-row residue (Bloom-filter bit inserts, a few hashes
// per build row) is below the roofline model's granularity.
func (t phaseTotals) seconds(cfg Config, scale Scale) float64 {
	dr := scale.DataRatio
	// Shared passes ship their full merged response to the node (wire
	// bytes), even though the query is only billed its share.
	transfer := float64(t.selectReturnBytes+t.getBytes+t.sharedWireBytes) * dr / cfg.NetworkBytesPerSec
	// Cache-served response bytes never touch the network or the storage
	// side; they only pay the (parallelizable) select-response parse.
	parallel := float64(t.getBytes)*dr/cfg.BulkParseBytesPerSec +
		float64(t.selectReturnBytes+t.cacheReturnBytes+t.sharedWireBytes)*dr/cfg.SelectParseBytesPerSec +
		float64(t.serverRows)*dr*cfg.RowWorkSecPerRow
	server := parallel/float64(cfg.WorkerBudget()) +
		(float64(t.requests)+t.sharedRequests)*scale.PartRatio*cfg.RequestCPUSec +
		float64(t.rowFetchRequests)*dr*cfg.RequestCPUSec +
		float64(t.rangedRanges)*dr*cfg.RangedGetSecPerRange +
		t.serverExtraSec
	return math.Max(t.s3MaxStreamSec, math.Max(transfer, server))
}

// billed prices the totals' storage activity at the (profile-applied)
// rates pp; see Metrics.Cost for what scales. Catalog requests do not.
func (t phaseTotals) billed(pp Pricing, scale Scale) CostBreakdown {
	dr := scale.DataRatio
	requests := (float64(t.requests)+t.sharedRequests)*scale.PartRatio +
		float64(t.rowFetchRequests)*dr + float64(t.catalogRequests)
	return CostBreakdown{
		RequestUSD: requests / 1000 * pp.RequestPer1000,
		ScanUSD:    (float64(t.scanBytes) + t.sharedScanBytes) * dr / gb * pp.ScanPerGB,
		TransferUSD: (float64(t.selectReturnBytes)+t.sharedReturnBytes)*dr/gb*pp.ReturnPerGB +
			(float64(t.getBytes)*dr+float64(t.catalogBytes))/gb*pp.TransferPerGB,
	}
}

// Seconds evaluates this phase's duration alone under the roofline model
// (per-span observability; RuntimeSeconds is the authority for whole-query
// time — it overlaps phases within a stage).
func (p *Phase) Seconds() float64 {
	return p.snapshot().seconds(p.cfg, p.scale)
}

// BilledCost prices this phase's storage activity alone under base
// pricing, mirroring Metrics.Cost for a single phase. Compute is a
// whole-query quantity and is not attributed to individual phases.
func (p *Phase) BilledCost(base Pricing) CostBreakdown {
	return p.snapshot().billed(base.ForProfile(p.profile), p.scale)
}

// Metrics collects the phases of one query execution.
type Metrics struct {
	mu     sync.Mutex
	cfg    Config
	scale  Scale
	phases []*Phase
}

// NewMetrics returns an empty Metrics using cfg for time accounting, at
// unit scale.
func NewMetrics(cfg Config) *Metrics {
	return NewMetricsScaled(cfg, Unit())
}

// NewMetricsScaled returns an empty Metrics reporting paper-scale time and
// cost per the given Scale.
func NewMetricsScaled(cfg Config, scale Scale) *Metrics {
	return &Metrics{cfg: cfg, scale: scale.normalized()}
}

// Open opens (or returns) the named phase in the given stage, with its
// storage requests timed and priced under the given backend profile, and
// binds it to sp, the trace span that reports it: sp carries the phase's
// name and stage, and reads its seconds and its dollars under base pricing
// when the trace is snapshotted, so work metered after sp ended is never
// missing from it. Untraced, sp is nil and nothing is allocated but the
// phase. This is the only way to open a phase outside this package, so no
// billed phase is invisible to query traces.
func (m *Metrics) Open(sp *obs.Span, name string, stage int, profile Profile, base Pricing) *Phase {
	p := m.phase(name, stage, profile)
	if sp != nil {
		sp.SetStr("phase", name)
		sp.SetInt("stage", int64(stage))
		sp.SetFloatFunc("sim_sec", p.Seconds)
		sp.SetFloatFunc("cost_usd", func() float64 { return p.BilledCost(base).Total() })
	}
	return p
}

// phase opens (or returns) the named phase in the given stage, with the
// phase's storage requests timed and priced under the given backend profile
// (the zero Profile: the metrics' base Config). The profile binds on first
// open; later opens of the same (name, stage) reuse the existing phase.
func (m *Metrics) phase(name string, stage int, profile Profile) *Phase {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.phases {
		if p.Name == name && p.Stage == stage {
			return p
		}
	}
	p := &Phase{
		Name: name, Stage: stage,
		cfg:     m.cfg.ForProfile(profile),
		profile: profile,
		scale:   m.scale,
	}
	m.phases = append(m.phases, p)
	return p
}

// Phases returns the opened phases (live pointers in a copied slice), in
// open order.
func (m *Metrics) Phases() []*Phase {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Phase{}, m.phases...)
}

// RuntimeSeconds evaluates the virtual runtime: within a stage phases
// overlap (max); stages are sequential (sum).
func (m *Metrics) RuntimeSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStage := map[int]float64{}
	for _, p := range m.phases {
		t := p.snapshot().seconds(p.cfg, m.scale)
		if t > byStage[p.Stage] {
			byStage[p.Stage] = t
		}
	}
	// Sum in sorted stage order: float addition is not associative, and the
	// runtime must be byte-identical run to run (the figures diff on it).
	stages := make([]int, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	var total float64
	for _, s := range stages {
		total += byStage[s]
	}
	return total
}

// Totals sums raw (unscaled) counters across phases. Row-fetch requests
// are included in the request count.
func (m *Metrics) Totals() (requests, scanBytes, selectReturnBytes, getBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.phases {
		t := p.snapshot()
		requests += t.requests + t.rowFetchRequests + t.catalogRequests
		scanBytes += t.scanBytes
		selectReturnBytes += t.selectReturnBytes
		getBytes += t.getBytes + t.catalogBytes
	}
	return
}

// CacheTotals sums result-cache activity across phases: how many select
// responses were served from the compute-tier cache and how many response
// bytes that avoided re-buying from storage. Cache hits are deliberately
// absent from Totals' request count — they issue no storage request.
func (m *Metrics) CacheTotals() (hits, returnedBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.phases {
		t := p.snapshot()
		hits += t.cacheHits
		returnedBytes += t.cacheReturnBytes
	}
	return
}

// SharedTotals sums shared-scan accounting across phases: the fractional
// request/scan/return shares this query was billed for its participation
// in shared passes, and the full response bytes those passes shipped to
// the node. Shared requests are fractional by construction (1/sharers
// each) and therefore deliberately absent from Totals' integer counts.
func (m *Metrics) SharedTotals() (requestShare, scanByteShare, returnByteShare float64, wireBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.phases {
		t := p.snapshot()
		requestShare += t.sharedRequests
		scanByteShare += t.sharedScanBytes
		returnByteShare += t.sharedReturnBytes
		wireBytes += t.sharedWireBytes
	}
	return
}

// CostBreakdown is the paper's four cost components (Fig. 1b etc.).
type CostBreakdown struct {
	ComputeUSD  float64
	RequestUSD  float64
	ScanUSD     float64
	TransferUSD float64
}

// Total sums the components.
func (c CostBreakdown) Total() float64 {
	return c.ComputeUSD + c.RequestUSD + c.ScanUSD + c.TransferUSD
}

// String renders the breakdown compactly.
func (c CostBreakdown) String() string {
	return fmt.Sprintf("$%.6f (compute %.6f, request %.6f, scan %.6f, transfer %.6f)",
		c.Total(), c.ComputeUSD, c.RequestUSD, c.ScanUSD, c.TransferUSD)
}

const gb = 1 << 30

// Cost prices the query under pricing p at the metrics' scale: byte
// volumes and per-row request counts are reported at paper size; bulk
// (per-partition) requests scale only by the partition ratio. Phases whose
// requests ran against a backend profile are billed at that profile's
// request/scan/transfer rates; the compute component always uses p's
// ComputePerHour (the node is the same wherever the bytes come from).
func (m *Metrics) Cost(p Pricing) CostBreakdown {
	m.mu.Lock()
	var c CostBreakdown
	for _, ph := range m.phases {
		c = c.Add(ph.snapshot().billed(p.ForProfile(ph.profile), m.scale))
	}
	m.mu.Unlock()
	c.ComputeUSD = m.RuntimeSeconds() / 3600 * p.ComputePerHour
	return c
}

// CostComputationAware prices the query under Suggestion-5 pricing: the
// scan component is scaled by per-phase expression weight. Phases that
// scanned without per-row compute pay BaseFraction of list price.
func (m *Metrics) CostComputationAware(p ComputationAwarePricing, avgNodesPerRow float64) CostBreakdown {
	c := m.Cost(p.Pricing)
	frac := p.BaseFraction + (1-p.BaseFraction)*math.Min(avgNodesPerRow/p.NodesAtFullPrice, 1)
	c.ScanUSD *= frac
	return c
}

// Report renders a per-phase table (debugging).
func (m *Metrics) Report() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	sorted := make([]*Phase, len(m.phases))
	copy(sorted, m.phases)
	// Stage first, name as the tie-break: phases opened concurrently within
	// a stage land in racy creation order, and the report must be
	// deterministic (EXPLAIN ANALYZE goldens pin it byte-for-byte).
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Stage != sorted[j].Stage {
			return sorted[i].Stage < sorted[j].Stage
		}
		return sorted[i].Name < sorted[j].Name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %5s %10s %12s %12s %10s\n",
		"phase", "stage", "requests", "scanMB", "returnMB", "sec")
	for _, p := range sorted {
		t := p.snapshot()
		// Shared-pass slices fold into the billed scan/return columns so
		// the table still sums to what the query paid for.
		fmt.Fprintf(&b, "%-24s %5d %10d %12.2f %12.2f %10.3f\n",
			p.Name, p.Stage, t.requests+t.rowFetchRequests+t.catalogRequests,
			(float64(t.scanBytes)+t.sharedScanBytes)/1e6,
			(float64(t.selectReturnBytes+t.getBytes+t.catalogBytes)+t.sharedReturnBytes)/1e6,
			t.seconds(p.cfg, m.scale))
	}
	return b.String()
}
