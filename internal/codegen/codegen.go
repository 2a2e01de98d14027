// Package codegen is Cascabel's output-generation stage (paper Section IV-C,
// steps 3 and 4). From a static mapping plan it produces:
//
//   - generated Go source targeting the task runtime (the counterpart of the
//     paper's StarPU output programs) — see GenerateGo;
//   - a compilation-and-linking plan derived from the platform description,
//     naming the platform compilers each variant set would require (nvcc,
//     gcc, spu-gcc, ...) — see CompilePlan; and
//   - a directly executable form of the translated program: Execute builds
//     the task graph the generated code describes and runs it on the task
//     runtime, in real or simulated mode. This is how the examples run the
//     paper's annotated programs end to end without invoking a compiler.
package codegen

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/partition"
	"repro/internal/pragma"
	"repro/internal/repo"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// Piece is one fragment of a distributed argument.
type Piece struct {
	Payload any
	Bytes   int64
	Elems   int
}

// Splittable payloads know how to distribute themselves. Call-site arguments
// must implement it to participate in data-parallel decomposition.
type Splittable interface {
	Split(d partition.Dist, pieces, blockSize int) ([]Piece, error)
}

// Vector is a real float64 vector argument. BLOCK distributions split it
// into zero-copy contiguous subslices, so kernels update the original
// storage in place. CYCLIC distributions would need gather/scatter staging
// and are rejected for in-place vectors — use SimVector to model them.
type Vector []float64

// Split implements Splittable.
func (v Vector) Split(d partition.Dist, pieces, blockSize int) ([]Piece, error) {
	if d != partition.Block {
		return nil, fmt.Errorf("codegen: %v distribution needs gather/scatter staging; only BLOCK is supported for in-place vectors", d)
	}
	ps, err := partition.Partition1D(d, len(v), pieces, blockSize)
	if err != nil {
		return nil, err
	}
	var out []Piece
	for _, p := range ps {
		if p.Elements() == 0 {
			continue
		}
		s := p.Spans[0]
		out = append(out, Piece{
			Payload: []float64(v[s.Start : s.Start+s.Len]),
			Bytes:   int64(s.Len) * 8,
			Elems:   s.Len,
		})
	}
	return out, nil
}

// SimVector is a size-only vector for simulated execution: it distributes
// like a vector of N elements of ElemBytes each but carries no data.
type SimVector struct {
	N         int
	ElemBytes int64
}

// Split implements Splittable.
func (v SimVector) Split(d partition.Dist, pieces, blockSize int) ([]Piece, error) {
	eb := v.ElemBytes
	if eb <= 0 {
		eb = 8
	}
	ps, err := partition.Partition1D(d, v.N, pieces, blockSize)
	if err != nil {
		return nil, err
	}
	var out []Piece
	for _, p := range ps {
		n := p.Elements()
		if n == 0 {
			continue
		}
		out = append(out, Piece{Payload: nil, Bytes: int64(n) * eb, Elems: n})
	}
	return out, nil
}

// ExecOptions configure Execute.
type ExecOptions struct {
	// Mode selects the engine (taskrt.Real or taskrt.Sim).
	Mode taskrt.Mode
	// Scheduler names the taskrt scheduling policy, "ws" or "dmda" in
	// either mode ("" = ws).
	Scheduler string
	// Args binds call-site argument names to payloads. Splittable payloads
	// are distributed per the annotation's DistSpecs; other payloads become
	// one shared handle.
	Args map[string]any
	// Pieces overrides the decomposition width (0 = total units of the
	// resolved execution group, or of the whole platform without a group).
	Pieces int
	// Trace optionally records per-task (and sim-mode per-transfer) events.
	Trace *trace.Trace
}

// Execute builds and runs the task graph of the translated program. Each
// annotated call site becomes `pieces` tasks whose accesses follow the
// variant's declared access modes and whose data distribution follows the
// execute annotation, mirroring the output-generation step that inserts
// "highly platform specific code for data-partitioning, transfer and task
// invocations".
func Execute(plan *mapping.Plan, opts ExecOptions) (*taskrt.Report, error) {
	var rt taskrt.Runtime
	for _, site := range plan.Sites {
		if err := submitSite(&rt, site, opts); err != nil {
			return nil, err
		}
	}
	return taskrt.Run(rt.Graph(), taskrt.Config{
		Platform:  plan.Platform,
		Mode:      opts.Mode,
		Scheduler: opts.Scheduler,
		Trace:     opts.Trace,
	})
}

// A BLOCK_CYCLIC distribution deals out blocks of blockSize elements, and a
// task's cost estimate is flopsPerElement per element of its largest piece.
const (
	blockSize       = 1
	flopsPerElement = 1.0
)

func submitSite(rt *taskrt.Runtime, site *mapping.SitePlan, opts ExecOptions) error {
	sel := site.Selection
	cl, err := repo.Codelet(sel.Interface, sel.Variants)
	if err != nil {
		return err
	}

	// Parameter modes come from the fallback variant's declaration.
	params := sel.ForArch("x86")[0].Params
	modeOf := map[string]taskrt.AccessMode{}
	for _, p := range params {
		modeOf[p.Name] = p.Mode
	}
	distOf := map[string]pragma.DistSpec{}
	for _, d := range site.Site.Annotation.Dists {
		distOf[d.Param] = d
	}

	pieces := opts.Pieces
	if pieces <= 0 {
		pieces = 0
		if site.GroupPUs != nil {
			for _, pu := range site.GroupPUs {
				pieces += pu.EffectiveQuantity()
			}
		} else {
			pieces = rtPlatformUnits(site)
		}
	}
	if pieces < 1 {
		pieces = 1
	}

	// Split every distributed argument; count pieces consistently.
	type argPieces struct {
		name   string
		mode   taskrt.AccessMode
		pieces []Piece
		shared *taskrt.Handle
	}
	var args []argPieces
	nPieces := -1
	for ai, argName := range site.Site.Call.Args {
		name := argName
		// Positional association: call argument i corresponds to declared
		// parameter i (C calling convention); the annotation's dist specs
		// are keyed by parameter name.
		var pName string
		if ai < len(params) {
			pName = params[ai].Name
		} else {
			pName = name
		}
		mode, ok := modeOf[pName]
		if !ok {
			mode = taskrt.Read
		}
		payload := opts.Args[name]
		if payload == nil {
			payload = opts.Args[pName]
		}
		ap := argPieces{name: pName, mode: mode}
		if sp, ok := payload.(Splittable); ok {
			d, hasDist := distOf[pName]
			dist := partition.Block
			if hasDist {
				dist = d.Dist
			}
			ps, err := sp.Split(dist, pieces, blockSize)
			if err != nil {
				return fmt.Errorf("codegen: argument %q: %w", pName, err)
			}
			if nPieces >= 0 && len(ps) != nPieces {
				return fmt.Errorf("codegen: argument %q splits into %d pieces, earlier arguments into %d", pName, len(ps), nPieces)
			}
			nPieces = len(ps)
			ap.pieces = ps
		} else {
			var bytes int64 = 8
			ap.shared = rt.NewHandle(pName, bytes, payload)
		}
		args = append(args, ap)
	}
	if nPieces < 0 {
		nPieces = 1 // no distributed arguments: one task
	}

	// The execution group pins simulated placement to its PU subset
	// (paper IV-B); real-mode worker pools ignore it.
	var where []string
	for _, pu := range site.GroupPUs {
		where = append(where, pu.ID)
	}

	for k := 0; k < nPieces; k++ {
		var accesses []taskrt.Access
		var elems int
		for _, ap := range args {
			if ap.shared != nil {
				accesses = append(accesses, taskrt.Access{Handle: ap.shared, Mode: ap.mode})
				continue
			}
			p := ap.pieces[k]
			h := rt.NewHandle(fmt.Sprintf("%s.%d", ap.name, k), p.Bytes, p.Payload)
			accesses = append(accesses, taskrt.Access{Handle: h, Mode: ap.mode})
			if p.Elems > elems {
				elems = p.Elems
			}
		}
		if err := rt.Submit(&taskrt.Task{
			Codelet:  cl,
			Accesses: accesses,
			Flops:    flopsPerElement * float64(elems),
			Label:    fmt.Sprintf("%s#%d", sel.Interface, k),
			Where:    where,
		}); err != nil {
			return err
		}
	}
	return nil
}

func rtPlatformUnits(site *mapping.SitePlan) int {
	// Without an execution group, decompose over every unit that can run a
	// surviving variant.
	n := 0
	b := site.Selection.Bindings
	seen := map[string]bool{}
	for _, binding := range b {
		for _, pus := range binding.Roles {
			for _, pu := range pus {
				if !seen[pu.ID] {
					seen[pu.ID] = true
					n += pu.EffectiveQuantity()
				}
			}
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}
