package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

var clusterGEMM = workload{
	name: "cluster-gemm",
	why: "tiled DGEMM n=768 through the cluster master to 2 fresh loopback workers per rep: gob encode, one HTTP " +
		"round trip per task and master apply dominate, kernels are a small share of makespan",
	tailP: 0.50, nominalN: 25,
	setup: setupClusterGEMM,
}

// loopbackNodes are in-process cluster workers behind real loopback
// listeners. stop closes the servers and waits for them.
type loopbackNodes struct {
	nodes   []cluster.NodeConfig
	workers []*cluster.Worker
	servers []*http.Server
	wg      sync.WaitGroup
}

func startLoopbackNodes(count, slots int) (*loopbackNodes, error) {
	l := &loopbackNodes{}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name: name, Codelets: experiments.ClusterCodelets(), Archs: []string{"x86"}, Slots: slots,
		})
		if err != nil {
			l.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.stop()
			return nil, err
		}
		srv := &http.Server{Handler: w.Handler()}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			srv.Serve(ln) // returns ErrServerClosed on stop
		}()
		l.workers = append(l.workers, w)
		l.servers = append(l.servers, srv)
		l.nodes = append(l.nodes, cluster.NodeConfig{Name: name, Addr: "http://" + ln.Addr().String()})
	}
	return l, nil
}

func (l *loopbackNodes) stop() {
	for _, s := range l.servers {
		s.Close()
	}
	l.wg.Wait()
}

type clusterRunner struct {
	w              workload
	n, tile, nodes int
	a, b, ref      *blas.Matrix
	pl             *core.Platform
}

func setupClusterGEMM(w workload, p params) (runner, error) {
	r := &clusterRunner{w: w, n: 768, tile: 128, nodes: 2}
	if p.smoke {
		r.n, r.tile = 256, 64
	}
	r.a, r.b = randomMatrix(r.n, p.seed), randomMatrix(r.n, p.seed+1)
	r.ref = blas.NewMatrix(r.n, r.n)
	if err := blas.GemmBlocked(r.a, r.b, r.ref, blas.DefaultBlock); err != nil {
		return nil, err
	}
	var err error
	r.pl, err = core.NewBuilder("cluster-master").Master("host", core.Arch("x86"), core.Qty(1)).Build()
	return r, err
}

func (r *clusterRunner) close() {}

// job runs one distributed DGEMM against fresh workers and verifies C.
func (r *clusterRunner) job(tr *trace.Trace, sp *spanRecorder, op int) (*cluster.Report, error) {
	top := sp.begin(op, jobSpanName("cluster", tr), -1)
	defer sp.end(top)
	var (
		lb  *loopbackNodes
		err error
	)
	sp.timed(op, "cluster.NewWorker+listen", top, func() { lb, err = startLoopbackNodes(r.nodes, 1) })
	if err != nil {
		return nil, err
	}
	defer lb.stop()
	rt, err := taskrt.New(taskrt.Config{Platform: r.pl})
	if err != nil {
		return nil, err
	}
	mats := &experiments.GemmMatrices{A: r.a, B: r.b, C: blas.NewMatrix(r.n, r.n)}
	sp.timed(op, "experiments.SubmitTiledGEMM", top, func() { err = experiments.SubmitTiledGEMM(rt, r.n, r.tile, mats) })
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()
	m, err := cluster.NewMaster(cluster.Config{
		Nodes: lb.nodes, Trace: tr, HeartbeatEvery: 100 * time.Millisecond, HTTP: hc,
	})
	if err != nil {
		return nil, err
	}
	var rep *cluster.Report
	sp.timed(op, "cluster.Master.Run", top, func() { rep, err = m.Run(rt) })
	if err != nil {
		return nil, err
	}
	var diff float64
	sp.timed(op, "verify", top, func() { diff = blas.MaxDiff(r.ref, mats.C) })
	if !(diff <= 1e-8) {
		return rep, fmt.Errorf("distributed DGEMM differs from the blocked reference by %g", diff)
	}
	return rep, nil
}

func (r *clusterRunner) measure(d time.Duration, res *result) {
	tasks := 0
	lat := scaledReps(d, 2, res, func(i int) (float64, error) {
		rep, err := r.job(nil, nil, i)
		if err != nil {
			return 0, err
		}
		tasks = rep.Tasks
		return rep.MakespanSeconds, nil
	})
	latencyMetrics(res, r.w, lat, workRate(tasks, lat))
}

func (r *clusterRunner) layers(d time.Duration, sp *spanRecorder, res *result) {
	deadline := time.Now().Add(d * 6 / 10)
	var plain, traced, perTask, shipped, shipRatio, util, transfers, needData []float64
	resub, stragglers, events := 0, 0, 0
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		rep, err := r.job(nil, sp, 2*i)
		res.op(err)
		if err == nil && i > 0 {
			plain = append(plain, rep.MakespanSeconds)
			perTask = append(perTask, rep.MakespanSeconds/float64(rep.Tasks)*1e3)
			shipped = append(shipped, float64(rep.TransferBytes)/1e6)
			shipRatio = append(shipRatio, float64(rep.TransferBytes)/(3*8*float64(r.n)*float64(r.n)))
			transfers = append(transfers, float64(rep.Transfers))
			busy, nd := 0.0, 0
			for _, n := range rep.PerNode {
				busy += n.BusySeconds
				nd += n.NeedData
			}
			needData = append(needData, float64(nd))
			util = append(util, busy/(float64(len(rep.PerNode))*rep.MakespanSeconds))
			resub += rep.Resubmissions
			stragglers += rep.Stragglers
		}
		rep, err = r.job(trace.New(), sp, 2*i+1)
		res.op(err)
		if err == nil && i > 0 {
			traced = append(traced, rep.MakespanSeconds)
			events += rep.Trace.Len()
		}
	}
	res.timing("cluster.per_task_ms", perTask, 1)
	res.set("cluster.shipped_mb", median(shipped))
	res.set("cluster.ship_ratio", median(shipRatio))
	res.set("cluster.transfers", median(transfers))
	res.set("cluster.need_data", median(needData))
	res.set("cluster.worker_util", median(util))
	res.set("cluster.resubmissions", float64(resub))
	res.set("cluster.stragglers", float64(stragglers))
	res.set("blas.kernel_share", median(util))
	res.set("trace.events", float64(events))
	if m := median(plain); m > 0 {
		res.set("trace.overhead_ratio", median(traced)/m)
	}

	rest := d * 4 / 10
	r.probeWire(rest/2, res)
	probeKernels(rest/2, []kernelProbe{gemmPackedProbe("blas.gemm_tile_gflops", r.tile, 1)}, res)
}

// probeWire times the payload codec on one tile and one execute round trip
// to a loopback worker, with the three operands inline and with all three
// already cached on the worker.
func (r *clusterRunner) probeWire(d time.Duration, res *result) {
	tile := r.a.Sub(0, 0, r.tile, r.tile)
	var enc, dec, inlineRTT, cachedRTT []float64
	wire, err := cluster.EncodePayload(tile)
	if err != nil {
		res.op(err)
		return
	}
	res.set("cluster.tile_wire_bytes", float64(len(wire)))

	lb, err := startLoopbackNodes(1, 1)
	if err != nil {
		res.op(err)
		return
	}
	defer lb.stop()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	exec := func(req *cluster.ExecRequest) (float64, error) {
		t0 := time.Now()
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(req); err != nil {
			return 0, err
		}
		resp, err := hc.Post(lb.nodes[0].Addr+cluster.PathExecute, cluster.ContentTypeGob, &body)
		if err != nil {
			return 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		var out cluster.ExecResponse
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
			return 0, err
		}
		if !out.OK {
			return 0, fmt.Errorf("execute: %s (need data %v)", out.Error, out.NeedData)
		}
		return time.Since(t0).Seconds(), nil
	}
	request := func(handle0 int, cVersion uint64, inline bool) *cluster.ExecRequest {
		req := &cluster.ExecRequest{
			TaskID: handle0, Codelet: "dgemm", Label: "probe",
			Flops: blas.FlopsGEMM(r.tile, r.tile, r.tile),
		}
		for i, mode := range []taskrt.AccessMode{taskrt.Read, taskrt.Read, taskrt.ReadWrite} {
			spec := cluster.AccessSpec{HandleID: handle0 + i, Name: "t", Bytes: int64(len(wire)), Mode: int(mode)}
			if mode.Writes() {
				spec.Version = cVersion
			}
			if inline {
				spec.Inline = wire
			}
			req.Accesses = append(req.Accesses, spec)
		}
		return req
	}

	deadline := time.Now().Add(d)
	for i := 0; i < 5 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		data, err := cluster.EncodePayload(tile)
		enc = append(enc, time.Since(t0).Seconds())
		if err == nil {
			t0 = time.Now()
			_, err = cluster.DecodePayload(data)
			dec = append(dec, time.Since(t0).Seconds())
		}
		res.op(err)
		// Fresh handle ids each round: the inline call fills the worker's
		// cache, the calls after it find every operand there.
		h := 3 * i
		sec, err := exec(request(h, 0, true))
		res.op(err)
		if err != nil {
			continue
		}
		inlineRTT = append(inlineRTT, sec)
		for v := uint64(1); v <= 4; v++ {
			sec, err := exec(request(h, v, false))
			res.op(err)
			if err == nil {
				cachedRTT = append(cachedRTT, sec)
			}
		}
	}
	res.timing("cluster.encode_us_per_tile", enc, 1e6)
	res.timing("cluster.decode_us_per_tile", dec, 1e6)
	res.timing("cluster.exec_inline_rtt_us", inlineRTT, 1e6)
	res.timing("cluster.exec_rtt_us", cachedRTT, 1e6)
}
