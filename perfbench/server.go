package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// inst is the part of a workload instance every workload shares: the
// server, its context, and the client goroutines reading results.
type inst struct {
	srv     *dsms.Server
	cancel  context.CancelFunc
	ctx     context.Context
	clients sync.WaitGroup
	dropped int64 // hub drops already reported
}

func (in *inst) server() *dsms.Server { return in.srv }

// newServer builds a server configured as geoserver runs by default
// (shared trunks, cascade routing) with data tracing off.
func (in *inst) newServer(e *env) *dsms.Server {
	in.ctx, in.cancel = context.WithCancel(e.ctx)
	in.srv = dsms.NewServer(in.ctx)
	in.srv.SetSharing(true)
	in.srv.SetCascadeRouting(true)
	in.srv.SetTraceInterval(0)
	in.dropped = 0
	return in.srv
}

func (in *inst) goClient(fn func(ctx context.Context)) {
	in.clients.Add(1)
	go func() {
		defer in.clients.Done()
		fn(in.ctx)
	}()
}

// stop cancels the clients, shuts the server down, runs closeConns to
// unblock clients parked on sockets, and waits for every client.
func (in *inst) stop(closeConns func()) {
	if in.srv == nil {
		return
	}
	in.cancel()
	in.srv.Close() //nolint:errcheck
	closeConns()
	in.clients.Wait()
	in.srv = nil
}

// hubShed returns the hub's dropped chunks since the previous call.
func (in *inst) hubShed() int64 {
	var n int64
	for _, h := range in.srv.HubStats() {
		n += h.Dropped
	}
	d := n - in.dropped
	in.dropped = n
	return d
}

// register times one Server.Register call.
func register(e *env, srv *dsms.Server, text, colormap string) (*dsms.Registered, error) {
	t0 := time.Now()
	reg, err := srv.Register(text, dsms.DeliveryOptions{Colormap: colormap})
	e.mu.Lock()
	e.registerUs = append(e.registerUs, float64(time.Since(t0))/1e3)
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("register %q: %w", text, err)
	}
	return reg, nil
}

// serveWireFeed starts GSP ingest on a loopback listener and one feeder
// pumping band from a channel the generator fills, then waits until the
// server has attached the band.
func (in *inst) serveWireFeed(info stream.Info) (chan *stream.Chunk, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := in.srv
	in.goClient(func(context.Context) { srv.ServeIngest(ln) }) //nolint:errcheck
	feed := make(chan *stream.Chunk, stream.DefaultBuffer)
	addr := ln.Addr().String()
	in.goClient(func(ctx context.Context) {
		wire.FeedStream(ctx, addr, &stream.Stream{Info: info, C: feed}, wire.FeedOptions{}, nil) //nolint:errcheck
	})
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, ok := srv.Catalog()[info.Band]; ok {
			return feed, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("band %s not attached over GSP", info.Band)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
