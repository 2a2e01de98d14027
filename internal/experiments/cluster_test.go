package experiments

import (
	"bytes"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/taskrt"
)

// A request that hands the DGEMM codelet fewer payloads than it takes is
// answered with an error naming the codelet and both counts, and the worker
// pdlworkerd would run keeps serving: the next, well-formed request succeeds.
func TestWorkerSurvivesShortRequest(t *testing.T) {
	w, err := cluster.NewWorker(cluster.WorkerConfig{Name: "w", Codelets: ClusterCodelets(), Archs: []string{"x86"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	post := func(ops []*blas.Matrix, modes ...taskrt.AccessMode) cluster.ExecResponse {
		t.Helper()
		req := &cluster.ExecRequest{TaskID: len(ops), Codelet: "dgemm"}
		for i, m := range ops {
			frame, err := cluster.EncodePayload(m)
			if err != nil {
				t.Fatal(err)
			}
			// Each request names its own handles, so nothing is served from
			// the other's cache.
			req.Accesses = append(req.Accesses, cluster.AccessSpec{HandleID: 10*len(ops) + i, Mode: int(modes[i]), Inline: frame})
		}
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(req); err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Post(srv.URL+cluster.PathExecute, cluster.ContentTypeGob, &body)
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		var resp cluster.ExecResponse
		if err := gob.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	tile := func(seed int64) *blas.Matrix {
		m := blas.NewMatrix(4, 4)
		m.FillRandom(seed)
		return m
	}

	short := post([]*blas.Matrix{tile(1)}, taskrt.ReadWrite)
	if short.OK || !strings.Contains(short.Error, `codelet "dgemm" takes 3 payloads, the task has 1`) {
		t.Fatalf("one-access request: OK=%v error %q, want a failure naming the codelet and both counts", short.OK, short.Error)
	}
	full := post([]*blas.Matrix{tile(1), tile(2), tile(3)}, taskrt.Read, taskrt.Read, taskrt.ReadWrite)
	if !full.OK || len(full.Written) != 1 {
		t.Fatalf("three-access request after the short one: %+v, want OK with C written", full)
	}
}
