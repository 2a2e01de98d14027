package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// ClusterCodelets is the executable codelet registry shared by pdlworkerd
// and the cluster experiments: every codelet a worker daemon can be asked
// to run. Only codelets whose payloads survive the cluster wire codec
// belong here (dense matrices and plain slices; see cluster.EncodePayload).
func ClusterCodelets() []*taskrt.Codelet {
	return []*taskrt.Codelet{dgemmCodelet()}
}

// ClusterConfig parameterises the distributed tiled-DGEMM experiment.
type ClusterConfig struct {
	// N and Tile size the C += A·B problem (default 512 / 128).
	N, Tile int
	// Nodes lists worker base URLs (pdlworkerd instances). Empty spawns
	// InProcess loopback workers instead, so the experiment self-contains.
	Nodes []string
	// InProcess is the loopback worker count when Nodes is empty (default 2),
	// each running loopbackSlots kernels at a time.
	InProcess int
	// Trace, when set, receives the master's placement/transfer spans.
	Trace *trace.Trace
}

// ClusterDGEMM runs the tiled DGEMM task graph across worker nodes through
// the cluster master and verifies the distributed result against the local
// blocked reference — the end-to-end proof that shipped payloads, version
// caches and exactly-once apply compose correctly.
func ClusterDGEMM(cfg ClusterConfig) (*Result, error) {
	if cfg.N == 0 {
		cfg.N = 512
	}
	if cfg.Tile == 0 {
		cfg.Tile = 128
	}
	if cfg.InProcess <= 0 {
		cfg.InProcess = 2
	}

	nodes := make([]cluster.NodeConfig, 0, len(cfg.Nodes))
	if len(cfg.Nodes) > 0 {
		for i, addr := range cfg.Nodes {
			// Prefer the node's self-reported name so master spans and the
			// worker's own trace land in the same lane after pdltrace merge.
			name := fmt.Sprintf("node%d", i)
			if ctl, err := client.New(addr, client.WithRetry(0, 0)); err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				var info cluster.InfoResponse
				if err := ctl.GetJSON(ctx, cluster.PathInfo, &info); err == nil && info.Name != "" {
					name = info.Name
				}
				cancel()
			}
			nodes = append(nodes, cluster.NodeConfig{Name: name, Addr: addr})
		}
	} else {
		stop, started, err := startLoopbackWorkers(cfg.InProcess)
		if err != nil {
			return nil, err
		}
		defer stop()
		nodes = started
	}

	var rt taskrt.Runtime // the master needs the graph, not a Config
	w := GEMM(cfg.N, cfg.Tile, NewGemmMatrices(cfg.N, 42))
	if err := w.Submit(&rt); err != nil {
		return nil, err
	}

	m, err := cluster.NewMaster(cluster.Config{
		Nodes:          nodes,
		Trace:          cfg.Trace,
		HeartbeatEvery: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	rep, err := m.Run(&rt)
	if err != nil {
		return nil, err
	}

	if err := w.Verify(); err != nil {
		return nil, err
	}

	mb := func(bytes int64) string { return f2(float64(bytes) / (1 << 20)) }
	res := &Result{
		Name:    fmt.Sprintf("cluster: distributed tiled DGEMM n=%d tile=%d (%d nodes)", cfg.N, cfg.Tile, len(nodes)),
		Headers: []string{"node", "tasks", "invocations", "busy_s", "util", "shipped_MB", "returned_MB", "resubmits", "dead"},
	}
	for _, n := range rep.PerNode {
		util := 0.0
		if rep.MakespanSeconds > 0 {
			util = n.BusySeconds / rep.MakespanSeconds
		}
		res.AddRow(n.Name, fmt.Sprint(n.Tasks), fmt.Sprint(n.Invocations), f4(n.BusySeconds), f2(util),
			mb(n.TransferBytes), mb(n.ReturnBytes), fmt.Sprint(n.Resubmits), fmt.Sprint(n.Dead))
	}
	res.AddRow("total", fmt.Sprint(rep.Tasks), fmt.Sprint(rep.Invocations), f4(rep.MakespanSeconds), "",
		mb(rep.TransferBytes), mb(rep.ReturnBytes), fmt.Sprint(rep.Resubmissions), strings.Join(rep.DeadNodes, " "))
	// ship_ratio is bytes sent down over the three operands' size. Its floor
	// for p nodes that each take a band of C's rows: every node needs its
	// band of A and of C and all of B, (2 + p)/3 of the operands in all.
	operands := 3 * 8 * float64(cfg.N) * float64(cfg.N)
	res.Notes = append(res.Notes,
		"result verified against local blocked GEMM",
		fmt.Sprintf("makespan %.4fs, %d tasks in %d invocations, %d transfers (%s MB shipped), %d returns (%s MB returned)",
			rep.MakespanSeconds, rep.Tasks, rep.Invocations, rep.Transfers, mb(rep.TransferBytes), rep.Returns, mb(rep.ReturnBytes)),
		fmt.Sprintf("ship_ratio %.2f against a %d-node bound of %.2f",
			float64(rep.TransferBytes)/operands, len(nodes), float64(2+len(nodes))/3))
	if rep.FailedAttempts > 0 || rep.Resubmissions > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("fault tolerance: %d failed attempts, %d task(s) retried, %d resubmission(s)",
			rep.FailedAttempts, rep.RetriedTasks, rep.Resubmissions))
	}
	return res, nil
}

// loopbackSlots is each loopback worker's execution parallelism.
const loopbackSlots = 2

// startLoopbackWorkers spins up in-process cluster workers on loopback
// listeners, returning their node configs and a stop function.
func startLoopbackWorkers(count int) (stop func(), nodes []cluster.NodeConfig, err error) {
	var servers []*http.Server
	stop = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name:     name,
			Codelets: ClusterCodelets(),
			Archs:    []string{"x86"},
			Slots:    loopbackSlots,
		})
		if err != nil {
			stop()
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &http.Server{Handler: w.Handler()}
		go srv.Serve(ln)
		servers = append(servers, srv)
		nodes = append(nodes, cluster.NodeConfig{Name: name, Addr: "http://" + ln.Addr().String()})
	}
	return stop, nodes, nil
}
