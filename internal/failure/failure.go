// Package failure models task and node faults for the workflow toolkit.
// The paper's Workflow Roofline bounds assume every task runs once and
// succeeds, but the workflows it models (LCLS streaming, BerkeleyGW
// ensembles) run for hours on thousands of nodes where failures are routine
// — and failure/retry directly moves the achieved TPS point relative to the
// ceilings.
//
// The package defines deterministic, seedable fault processes:
//
//   - a per-attempt task failure probability,
//   - per-node MTBF with exponential interarrival (failed nodes return to
//     service after a repair time), and
//   - a payload-size-dependent restage cost paid before a retry (re-staging
//     the task's external/FS input after a failure).
//
// plus a retry policy: bounded attempts, exponential backoff with jitter,
// and optional checkpoint/restart (retries resume from completed work,
// paying a restart overhead proportional to it).
//
// Everything is driven by splitmix64 streams keyed on (seed, task id), so a
// simulation draws the same fault sequence for a task regardless of event
// interleaving, worker count, or which other tasks exist — the same
// discipline internal/sweep uses for ensemble trials.
package failure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"wroofline/internal/units"
)

// Spec is the JSON-facing failure-model configuration, shared by the wfsim
// flags, wfsweep/wfserved study specs, and the /v1/model endpoint. All
// fields are optional; the zero Spec compiles to a disabled model.
type Spec struct {
	// TaskFailProb is the per-attempt probability that a task attempt fails
	// partway through, in [0, 1).
	TaskFailProb float64 `json:"task_fail_prob,omitempty"`
	// NodeMTBFSeconds is the per-node mean time between failures; the
	// aggregate failure process over N nodes is exponential with mean
	// MTBF/N. Zero disables node failures.
	NodeMTBFSeconds float64 `json:"node_mtbf_seconds,omitempty"`
	// NodeRepairSeconds is how long a failed node stays out of service
	// (default 60 when node failures are enabled).
	NodeRepairSeconds float64 `json:"node_repair_seconds,omitempty"`
	// RestageRate is the byte rate (e.g. "1 GB/s") at which a failed task's
	// external+FS payload is re-staged before its retry; empty means no
	// restage cost.
	RestageRate string `json:"restage_rate,omitempty"`
	// Seed seeds every fault stream. Two runs with equal seeds draw
	// identical fault sequences.
	Seed uint64 `json:"seed,omitempty"`
	// Retry tunes the retry policy; nil takes every default.
	Retry *RetrySpec `json:"retry,omitempty"`
}

// RetrySpec is the JSON retry policy.
type RetrySpec struct {
	// MaxAttempts bounds attempts per task (default 5). A task that fails
	// on its last attempt fails permanently.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BackoffSeconds is the base backoff before the first retry (default 1).
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
	// BackoffFactor multiplies the backoff per successive failure
	// (default 2).
	BackoffFactor float64 `json:"backoff_factor,omitempty"`
	// BackoffCapSeconds caps the backoff (default 60).
	BackoffCapSeconds float64 `json:"backoff_cap_seconds,omitempty"`
	// JitterFrac randomizes the backoff: a delay d becomes uniform in
	// [d*(1-jitter), d]. In [0, 1]; zero means no jitter.
	JitterFrac float64 `json:"jitter_frac,omitempty"`
	// Checkpoint makes retries resume from the work completed before the
	// failure instead of re-running the task from scratch.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// CheckpointOverhead is the restart cost of a checkpointed retry as a
	// fraction of the completed work re-processed on restart, in [0, 1].
	CheckpointOverhead float64 `json:"checkpoint_overhead,omitempty"`
}

// ParseSpec strictly decodes a failure spec: unknown fields are errors, so
// typos in hand-written specs fail loudly instead of silently simulating a
// failure-free system.
func ParseSpec(data []byte) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("parse failure spec: %w", err)
	}
	return &spec, nil
}

// Default retry-policy values.
const (
	DefaultMaxAttempts       = 5
	DefaultBackoffSeconds    = 1.0
	DefaultBackoffFactor     = 2.0
	DefaultBackoffCapSeconds = 60.0
	DefaultRepairSeconds     = 60.0
)

// Retry is the compiled retry policy.
type Retry struct {
	MaxAttempts        int
	BackoffSeconds     float64
	BackoffFactor      float64
	BackoffCapSeconds  float64
	JitterFrac         float64
	Checkpoint         bool
	CheckpointOverhead float64
}

// Delay returns the backoff before the retry that follows the failures-th
// consecutive failure (failures >= 1). u in [0, 1) supplies the jitter draw;
// it is ignored when JitterFrac is zero so jitter-free policies consume no
// randomness beyond the fault draws themselves.
func (r Retry) Delay(failures int, u float64) float64 {
	if failures < 1 {
		failures = 1
	}
	d := r.BackoffSeconds * math.Pow(r.BackoffFactor, float64(failures-1))
	// A non-positive cap means uncapped, so hand-built policies (which skip
	// Compile's defaulting) don't silently collapse every delay to zero.
	if r.BackoffCapSeconds > 0 && d > r.BackoffCapSeconds {
		d = r.BackoffCapSeconds
	}
	if r.JitterFrac > 0 {
		d *= 1 - r.JitterFrac*u
	}
	return d
}

// Model is the compiled, validated failure model consumed by internal/sim
// and internal/exec.
type Model struct {
	// TaskFailProb is the per-attempt failure probability.
	TaskFailProb float64
	// NodeMTBF and NodeRepair parameterize the node fault process (seconds);
	// NodeMTBF zero disables it.
	NodeMTBF   float64
	NodeRepair float64
	// RestageBytesPerSec converts a failed task's staged payload into a
	// restage delay; zero means no restage cost.
	RestageBytesPerSec float64
	// Seed keys every fault stream.
	Seed uint64
	// Retry is the retry policy.
	Retry Retry
}

// Compile validates the spec, applies defaults, and parses the unit strings.
func (s *Spec) Compile() (*Model, error) {
	if s == nil {
		s = &Spec{}
	}
	if s.TaskFailProb < 0 || s.TaskFailProb >= 1 || math.IsNaN(s.TaskFailProb) {
		return nil, fmt.Errorf("failure: task_fail_prob %v outside [0, 1)", s.TaskFailProb)
	}
	if s.NodeMTBFSeconds < 0 || math.IsNaN(s.NodeMTBFSeconds) || math.IsInf(s.NodeMTBFSeconds, 0) {
		return nil, fmt.Errorf("failure: node_mtbf_seconds %v must be non-negative and finite", s.NodeMTBFSeconds)
	}
	if s.NodeRepairSeconds < 0 || math.IsNaN(s.NodeRepairSeconds) || math.IsInf(s.NodeRepairSeconds, 0) {
		return nil, fmt.Errorf("failure: node_repair_seconds %v must be non-negative and finite", s.NodeRepairSeconds)
	}
	m := &Model{
		TaskFailProb: s.TaskFailProb,
		NodeMTBF:     s.NodeMTBFSeconds,
		NodeRepair:   s.NodeRepairSeconds,
		Seed:         s.Seed,
		Retry: Retry{
			MaxAttempts:       DefaultMaxAttempts,
			BackoffSeconds:    DefaultBackoffSeconds,
			BackoffFactor:     DefaultBackoffFactor,
			BackoffCapSeconds: DefaultBackoffCapSeconds,
		},
	}
	if m.NodeMTBF > 0 && m.NodeRepair == 0 {
		m.NodeRepair = DefaultRepairSeconds
	}
	if s.RestageRate != "" {
		rate, err := units.ParseByteRate(s.RestageRate)
		if err != nil {
			return nil, fmt.Errorf("failure: restage_rate: %w", err)
		}
		if rate <= 0 {
			return nil, fmt.Errorf("failure: restage_rate %v must be positive", s.RestageRate)
		}
		m.RestageBytesPerSec = float64(rate)
	}
	if r := s.Retry; r != nil {
		if r.MaxAttempts < 0 {
			return nil, fmt.Errorf("failure: retry max_attempts %d must be non-negative", r.MaxAttempts)
		}
		if r.MaxAttempts > 0 {
			m.Retry.MaxAttempts = r.MaxAttempts
		}
		if r.BackoffSeconds < 0 || math.IsNaN(r.BackoffSeconds) || math.IsInf(r.BackoffSeconds, 0) {
			return nil, fmt.Errorf("failure: retry backoff_seconds %v must be non-negative and finite", r.BackoffSeconds)
		}
		if r.BackoffSeconds > 0 {
			m.Retry.BackoffSeconds = r.BackoffSeconds
		}
		if r.BackoffFactor < 0 || math.IsNaN(r.BackoffFactor) || math.IsInf(r.BackoffFactor, 0) {
			return nil, fmt.Errorf("failure: retry backoff_factor %v must be non-negative and finite", r.BackoffFactor)
		}
		if r.BackoffFactor > 0 {
			m.Retry.BackoffFactor = r.BackoffFactor
		}
		if r.BackoffCapSeconds < 0 || math.IsNaN(r.BackoffCapSeconds) || math.IsInf(r.BackoffCapSeconds, 0) {
			return nil, fmt.Errorf("failure: retry backoff_cap_seconds %v must be non-negative and finite", r.BackoffCapSeconds)
		}
		if r.BackoffCapSeconds > 0 {
			m.Retry.BackoffCapSeconds = r.BackoffCapSeconds
		}
		if r.JitterFrac < 0 || r.JitterFrac > 1 || math.IsNaN(r.JitterFrac) {
			return nil, fmt.Errorf("failure: retry jitter_frac %v outside [0, 1]", r.JitterFrac)
		}
		m.Retry.JitterFrac = r.JitterFrac
		if r.CheckpointOverhead < 0 || r.CheckpointOverhead > 1 || math.IsNaN(r.CheckpointOverhead) {
			return nil, fmt.Errorf("failure: retry checkpoint_overhead %v outside [0, 1]", r.CheckpointOverhead)
		}
		m.Retry.Checkpoint = r.Checkpoint
		m.Retry.CheckpointOverhead = r.CheckpointOverhead
	}
	return m, nil
}

// Enabled reports whether the model injects any faults. A disabled model
// must leave simulations bit-identical to runs without one.
func (m *Model) Enabled() bool {
	return m != nil && (m.TaskFailProb > 0 || m.NodeMTBF > 0)
}

// Stream is a splitmix64 sequence generator — the same finalizer
// internal/sweep uses for trial seeding, here iterated as a stream. It is
// deliberately tiny and allocation-free: simulations create one stream per
// task.
type Stream struct {
	state uint64
}

// NewStream returns a stream seeded with seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Uint64 advances the stream (splitmix64 step).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponential draw with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return -mean * math.Log1p(-s.Float64())
}

// TaskStream derives the fault stream for one task. The task id is folded
// into the seed with FNV-1a, so a task's fault sequence depends only on
// (seed, id) — never on event interleaving or which other tasks exist.
func TaskStream(seed uint64, taskID string) *Stream {
	return NewStream(seed ^ TaskHash(taskID))
}

// TaskHash is the FNV-1a fold of a task id that TaskStream mixes into the
// seed: NewStream(seed ^ TaskHash(id)) is TaskStream(seed, id). A simulator
// that draws streams for the same tasks under many seeds folds each id once.
func TaskHash(taskID string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(taskID); i++ {
		h ^= uint64(taskID[i])
		h *= fnvPrime
	}
	return h
}

// NodeStream derives the node-fault process stream, kept separate from task
// streams so enabling node failures never perturbs task fault draws.
func NodeStream(seed uint64) *Stream {
	return NewStream(seed ^ 0xA24BAED4963EE407)
}

// Analysis is the first-order analytic summary of a failure model, attached
// to /v1/model responses. The expectations treat failure points as uniform
// over an attempt (a failed attempt wastes half its planned work on
// average) and condition on eventual success, which dominates for the small
// failure probabilities the model targets.
type Analysis struct {
	// TaskFailProb and MaxAttempts echo the policy.
	TaskFailProb float64 `json:"task_fail_prob"`
	MaxAttempts  int     `json:"max_attempts"`
	// SuccessProb is the probability a task completes within MaxAttempts.
	SuccessProb float64 `json:"success_prob"`
	// ExpectedAttempts is the mean attempt count per task.
	ExpectedAttempts float64 `json:"expected_attempts"`
	// ExpectedWorkFactor is the mean executed work per task relative to a
	// failure-free run; the achieved-TPS point degrades by this factor.
	ExpectedWorkFactor float64 `json:"expected_work_factor"`
	// EffectiveTPS is the wall bound divided by the work factor — the
	// failure-adjusted ceiling (omitted when no bound was supplied).
	EffectiveTPS float64 `json:"effective_tps,omitempty"`
}

// Analyze evaluates the analytic expectations against an attainable-TPS
// bound (pass 0 to skip the effective-TPS projection).
func (m *Model) Analyze(boundTPS float64) Analysis {
	p := m.TaskFailProb
	k := m.Retry.MaxAttempts
	a := Analysis{
		TaskFailProb:       p,
		MaxAttempts:        k,
		SuccessProb:        1,
		ExpectedAttempts:   1,
		ExpectedWorkFactor: 1,
	}
	if p > 0 && k > 0 {
		pk := math.Pow(p, float64(k))
		a.SuccessProb = 1 - pk
		// Truncated geometric: E[A] = (1 - p^k) / (1 - p).
		a.ExpectedAttempts = (1 - pk) / (1 - p)
		// Each failed attempt wastes half its work on average; checkpointed
		// retries only re-pay the restart overhead on that completed half.
		waste := 0.5
		if m.Retry.Checkpoint {
			waste = 0.5 * m.Retry.CheckpointOverhead
		}
		a.ExpectedWorkFactor = 1 + waste*(a.ExpectedAttempts-1)
	}
	if boundTPS > 0 && a.ExpectedWorkFactor > 0 {
		a.EffectiveTPS = boundTPS / a.ExpectedWorkFactor
	}
	return a
}
