package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/discover"
	"repro/internal/experiments"
)

// The lease TTL has one owner, the registry: the node heartbeats at a third of
// the ttl_seconds its registration is answered with, whatever that is. A
// registry granting 0.3 s leases must see a beat every 0.1 s.
func TestHeartbeatFollowsRegistryTTL(t *testing.T) {
	var beats atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /platforms/{name}", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":"w","addr":"http://x","ttl_seconds":0.3}`))
	})
	mux.HandleFunc("POST /workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		beats.Add(1)
		w.Write([]byte(`{"renewed":true,"ttl_seconds":0.3}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctl, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	host := discover.HostInfo{Arch: "x86", Cores: 1}
	pl, err := discover.Generate(discover.Options{Name: "w", Host: &host})
	if err != nil {
		t.Fatal(err)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{Name: "w", Archs: []string{"x86"}, Codelets: experiments.ClusterCodelets()})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	registerLoop(ctx, ctl, pl, w, "http://x")
	if n := beats.Load(); n < 2 {
		t.Fatalf("%d heartbeats in 1 s against a 0.3 s lease, want at least 2 (one every 0.1 s)", n)
	}
}
