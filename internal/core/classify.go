package core

import (
	"fmt"
	"math"
	"strings"
)

// Zone is the four-way target classification of Fig 2a.
type Zone int

// Zones: makespan goal x throughput goal.
const (
	// ZoneGoodGood: meets both targets (green).
	ZoneGoodGood Zone = iota
	// ZoneGoodMakespanPoorThroughput: deadline met, throughput short (yellow).
	ZoneGoodMakespanPoorThroughput
	// ZonePoorMakespanGoodThroughput: throughput met, deadline missed (orange).
	ZonePoorMakespanGoodThroughput
	// ZonePoorPoor: misses both targets (red).
	ZonePoorPoor
	// ZoneNoTargets: the workflow declares no targets; use BoundClass instead.
	ZoneNoTargets
)

// String names the zone with the paper's colour words.
func (z Zone) String() string {
	switch z {
	case ZoneGoodGood:
		return "good makespan, good throughput (green)"
	case ZoneGoodMakespanPoorThroughput:
		return "good makespan, poor throughput (yellow)"
	case ZonePoorMakespanGoodThroughput:
		return "poor makespan, good throughput (orange)"
	case ZonePoorPoor:
		return "poor makespan, poor throughput (red)"
	case ZoneNoTargets:
		return "no targets declared"
	default:
		return fmt.Sprintf("Zone(%d)", int(z))
	}
}

// ClassifyZone places an empirical point into the Fig 2a zones. Makespan is
// judged against the deadline directly; throughput against the target TPS.
func (m *Model) ClassifyZone(pt Point) Zone {
	t := m.Targets
	if t == nil || (t.MakespanSeconds <= 0 && t.ThroughputTPS <= 0) {
		return ZoneNoTargets
	}
	goodMakespan := t.MakespanSeconds <= 0 || pt.MakespanSeconds <= t.MakespanSeconds
	goodThroughput := t.ThroughputTPS <= 0 || pt.TPS >= t.ThroughputTPS
	switch {
	case goodMakespan && goodThroughput:
		return ZoneGoodGood
	case goodMakespan:
		return ZoneGoodMakespanPoorThroughput
	case goodThroughput:
		return ZonePoorMakespanGoodThroughput
	default:
		return ZonePoorPoor
	}
}

// BoundClass is the Fig 3 split for workflows without explicit targets.
type BoundClass int

// Bound classes.
const (
	// NodeBound: the limiting ceiling at the point's x is node-scoped (blue
	// zone in Fig 3a).
	NodeBound BoundClass = iota
	// SystemBound: the limiting ceiling is system-scoped (orange zone in
	// Fig 3b).
	SystemBound
	// ParallelismBound: the point sits at the wall and the nearest bound is
	// the wall itself.
	ParallelismBound
)

// String names the bound class.
func (b BoundClass) String() string {
	switch b {
	case NodeBound:
		return "node bound"
	case SystemBound:
		return "system bound"
	case ParallelismBound:
		return "parallelism bound"
	default:
		return fmt.Sprintf("BoundClass(%d)", int(b))
	}
}

// NodeResource reports whether the resource is node-local (compute, memory,
// PCIe, serialized overhead) as opposed to a shared system path (network,
// file system, external, fabric bisection). The distinction drives Fig 3's node-bound vs
// system-bound split; it is about what the resource *is*, not how its
// ceiling is drawn — a per-stream-capped external path plots as a diagonal
// but is still a system resource.
func NodeResource(r Resource) bool {
	switch r {
	case ResCompute, ResMemory, ResPCIe, ResOverhead:
		return true
	default:
		return false
	}
}

// ClassifyBound determines which class of ceiling limits the point. A point
// at (or beyond) the wall whose throughput is within wallSlack of the bound
// at the wall, with a node ceiling binding there, is parallelism bound;
// otherwise the kind of the limiting resource decides.
func (m *Model) ClassifyBound(pt Point) BoundClass {
	const wallSlack = 0.5 // within 2x of the wall-limited bound counts
	_, limit := m.Bound(pt.ParallelTasks)
	if pt.ParallelTasks >= float64(m.Wall) && limit.Scope == ScopeNode && NodeResource(limit.Resource) {
		bound, _ := m.BoundAtWall()
		if !math.IsInf(bound, 1) && pt.TPS >= bound*wallSlack {
			return ParallelismBound
		}
	}
	if NodeResource(limit.Resource) {
		return NodeBound
	}
	return SystemBound
}

// Recommendation is one optimization direction the model motivates. The
// JSON tags are part of the wfserved /v1/model response contract.
type Recommendation struct {
	// Title is the short direction, e.g. "increase task parallelism".
	Title string `json:"title"`
	// Detail explains the expected movement on the roofline.
	Detail string `json:"detail"`
	// Feasible is false when a wall or ceiling blocks the direction (the
	// "infeasible optimization" of Fig 2c).
	Feasible bool `json:"feasible"`
	// ProjectedSpeedup is the multiplicative gain if the direction is taken
	// to its limit (0 when not quantifiable).
	ProjectedSpeedup float64 `json:"projected_speedup,omitempty"`
}

// String renders the recommendation on one line.
func (r Recommendation) String() string {
	feas := "feasible"
	if !r.Feasible {
		feas = "INFEASIBLE"
	}
	s := fmt.Sprintf("[%s] %s — %s", feas, r.Title, r.Detail)
	if r.ProjectedSpeedup > 1 {
		s += fmt.Sprintf(" (up to %.3gx)", r.ProjectedSpeedup)
	}
	return s
}

// Advise produces the optimization directions of Section III-C for an
// empirical point: latency improvement toward the limiting ceiling,
// parallelism increase toward the wall, and—when the workflow is system
// bound—the warning that faster compute will not help.
func (m *Model) Advise(pt Point) []Recommendation {
	var recs []Recommendation
	bound, limit := m.Bound(pt.ParallelTasks)
	headroom := m.Headroom(pt)
	class := m.ClassifyBound(pt)

	// Direction 1 (Fig 2b (1)): reduce makespan at iso-parallelism.
	if headroom > 1.05 && !math.IsInf(headroom, 1) {
		recs = append(recs, Recommendation{
			Title: "improve latency at current parallelism",
			Detail: fmt.Sprintf("achieved %.3g TPS vs attainable %.3g TPS; the binding ceiling is %s",
				pt.TPS, bound, limit.Name),
			Feasible:         true,
			ProjectedSpeedup: headroom,
		})
	}

	// Direction 2 (Fig 2b (2)): increase the number of parallel tasks.
	if pt.ParallelTasks < float64(m.Wall) {
		gain := float64(m.Wall) / pt.ParallelTasks
		// Diagonal ceilings scale with p; horizontal ones cap the gain.
		atWall, wallLimit := m.BoundAtWall()
		if atWall > bound {
			if !math.IsInf(atWall, 1) && bound > 0 {
				gain = math.Min(gain, atWall/bound)
			}
			recs = append(recs, Recommendation{
				Title: "increase task parallelism",
				Detail: fmt.Sprintf("wall allows %d parallel tasks (currently %.4g); at the wall the bound becomes %s",
					m.Wall, pt.ParallelTasks, wallLimit.Name),
				Feasible:         true,
				ProjectedSpeedup: gain,
			})
		} else {
			recs = append(recs, Recommendation{
				Title:    "increase task parallelism",
				Detail:   fmt.Sprintf("a system ceiling (%s) already binds; more parallel tasks cannot raise throughput", limit.Name),
				Feasible: false,
			})
		}
	} else {
		recs = append(recs, Recommendation{
			Title:    "increase task parallelism",
			Detail:   fmt.Sprintf("already at the system parallelism wall (%d tasks); a bigger machine or queue is required", m.Wall),
			Feasible: false,
		})
	}

	// The system architects' insight (Section V): when system bound, faster
	// nodes do not help.
	if class == SystemBound {
		recs = append(recs, Recommendation{
			Title: "do not buy faster compute",
			Detail: fmt.Sprintf("the workflow is system bound by %s; raising node compute peak leaves the bound unchanged — invest in network/storage QOS instead",
				limit.Name),
			Feasible: true,
		})
	}

	// Overhead ceilings call for control-flow restructuring (GPTune insight).
	if limit.Resource == ResOverhead {
		recs = append(recs, Recommendation{
			Title:            "reduce control-flow overhead",
			Detail:           "serialized per-task overhead binds (e.g. interpreter/launcher startup); keep state in memory, use spawned processes or containers",
			Feasible:         true,
			ProjectedSpeedup: headroom,
		})
	}
	return recs
}

// Report renders a full analysis of points against the model as text.
func (m *Model) Report(points []Point) string {
	var b strings.Builder
	b.WriteString(m.String())
	for _, pt := range points {
		bound, limit := m.Bound(pt.ParallelTasks)
		fmt.Fprintf(&b, "point %q: p=%.4g TPS=%.4g (makespan %.4gs)\n",
			pt.Label, pt.ParallelTasks, pt.TPS, pt.MakespanSeconds)
		fmt.Fprintf(&b, "  attainable: %.4g TPS, limited by %s\n", bound, limit.Name)
		fmt.Fprintf(&b, "  efficiency: %.1f%%  bound class: %s\n", 100*m.Efficiency(pt), m.ClassifyBound(pt))
		if z := m.ClassifyZone(pt); z != ZoneNoTargets {
			fmt.Fprintf(&b, "  zone: %s\n", z)
		}
		for _, r := range m.Advise(pt) {
			fmt.Fprintf(&b, "  advice: %s\n", r)
		}
	}
	return b.String()
}
