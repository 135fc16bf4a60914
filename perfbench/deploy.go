package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/server"
	"github.com/imgrn/imgrn/internal/shard"
)

// The three deployment shapes are built with the public constructors and
// cmd/imgrn-server's default flag values: -d 2 -seed 42 for the index,
// -workers 0, the fixed plan, no -max-concurrent cap, -query-timeout 30s,
// and for the coordinator -hedge-after 250ms -floor-every 25ms
// -rpc-timeout 60s -rpc-retries 2.
var serverIndexOptions = index.Options{D: 2, Seed: 42, BufferPages: 1024}

const (
	defaultQueryTimeout = 30 * time.Second
	defaultHedgeAfter   = 250 * time.Millisecond
	defaultFloorEvery   = 25 * time.Millisecond
	defaultRPCTimeout   = 60 * time.Second
	defaultRPCRetries   = 2
)

// configure applies the server defaults of cmd/imgrn-server.
func configure(s *server.Server) *server.Server {
	s.QueryTimeout = defaultQueryTimeout
	s.MaxConcurrent = 0
	s.Workers = 0
	s.Planner = nil
	return s
}

// listener is one loopback HTTP server.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// deployment is one running deployment shape.
type deployment struct {
	// front is the base URL clients send to; urls lists every server,
	// front first, for /metrics scrapes.
	front string
	urls  []string
	// coords are the in-process shard coordinators behind the servers;
	// globals[i][local] is the global shard index of coords[i]'s local
	// shard (the identity for in-process shapes).
	coords  []*shard.Coordinator
	globals [][]int
	stores  []*shard.Store
	remote  *cluster.Coordinator
	lns     []*listener
}

func (d *deployment) close() error {
	for i := len(d.lns) - 1; i >= 0; i-- {
		d.lns[i].close()
	}
	var errs []error
	if d.remote != nil {
		errs = append(errs, d.remote.Close())
	}
	for _, st := range d.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// deployInProcess serves db from one process: shard.Build with p shards
// behind server.NewSharded (p = 1 is the standalone shape).
func deployInProcess(db *gene.Database, p int) (*deployment, error) {
	coord, err := shard.Build(db, shard.Options{NumShards: p, Index: serverIndexOptions})
	if err != nil {
		return nil, err
	}
	l, err := listen(configure(server.NewSharded(coord, nil)))
	if err != nil {
		return nil, err
	}
	return &deployment{
		front: l.url, urls: []string{l.url},
		coords: []*shard.Coordinator{coord}, globals: [][]int{identity(p)},
		lns: []*listener{l},
	}, nil
}

// deployCluster serves db from nServers durable shard servers (one data
// directory each under dir, fsync on) holding numShards global shards at
// the given replication, behind a scatter-gather coordinator.
func deployCluster(db *gene.Database, dir string, nServers, numShards, replication int, ckptBytes int64) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			_ = d.close()
		}
	}()
	topo := cluster.Topology{Servers: make([]string, nServers), NumShards: numShards, Replication: replication}
	ring := cluster.NewRing(numShards, 0)
	for i := 0; i < nServers; i++ {
		owned := topo.ServerShards(i)
		localOf := make(map[int]int, len(owned))
		for l, g := range owned {
			localOf[g] = l
		}
		owndb := gene.NewDatabase()
		for _, m := range db.Matrices() {
			if _, ok := localOf[ring.Place(m.Source)]; ok {
				if err := owndb.Add(m); err != nil {
					return d, err
				}
			}
		}
		st, err := shard.OpenDurable(owndb, shard.Options{
			NumShards: len(owned),
			PlaceFunc: func(src int) int { return localOf[ring.Place(src)] },
			Index:     serverIndexOptions,
		}, shard.DurableOptions{
			Dir:             filepath.Join(dir, fmt.Sprintf("server-%d", i)),
			CheckpointBytes: ckptBytes,
		})
		if err != nil {
			return d, fmt.Errorf("server %d: %w", i, err)
		}
		d.stores = append(d.stores, st)
		d.coords = append(d.coords, st.Coordinator)
		d.globals = append(d.globals, owned)
		l, err := listen(configure(server.NewDurableShardServer(st, nil,
			&server.ShardRole{NumShards: numShards, Shards: owned, Ring: ring})))
		if err != nil {
			return d, err
		}
		d.lns = append(d.lns, l)
		topo.Servers[i] = l.url
	}
	front, err := server.NewCluster(cluster.CoordinatorOptions{
		Topology:   topo,
		Client:     &cluster.Client{Timeout: defaultRPCTimeout, Retries: defaultRPCRetries},
		HedgeAfter: defaultHedgeAfter,
		FloorEvery: defaultFloorEvery,
	}, nil)
	if err != nil {
		return d, err
	}
	d.remote = front.Remote()
	d.remote.Start()
	l, err := listen(configure(front))
	if err != nil {
		return d, err
	}
	d.lns = append(d.lns, l)
	d.front = l.url
	d.urls = append([]string{l.url}, topo.Servers...)
	return d, nil
}
