package main

import (
	"fmt"
	"io"
	"net"
	"sync"

	rumor "repro"
	"repro/internal/transport"
)

// sut is the system under test, reached only through the public API.
type sut interface {
	push(s step, offset int64) error
	drain() error
	count(name string) int64
	add(name string, root *rumor.Logical) error
	remove(name string) error
	checkpoint(w io.Writer) error
	close() error
}

// pushStep pushes one step through a push / push-columns pair of the
// public API. A columnar step gets a fresh timestamp column, because the
// sharded system takes ownership of it; the value columns are shared
// between passes, which the API allows since pushed data is never
// modified.
func pushStep(s step, offset int64,
	push func(string, int64, ...int64) error,
	pushColumns func(string, []int64, [][]int64) error) error {
	if s.cols == nil {
		return push(s.src, s.ts+offset, s.vals...)
	}
	return pushColumns(s.src, columnTS(s, offset), s.cols)
}

// columnTS returns a fresh timestamp column for a columnar step.
func columnTS(st step, offset int64) []int64 {
	ts := make([]int64, len(st.cols[0]))
	for i := range ts {
		ts[i] = st.ts + offset
	}
	return ts
}

type systemSUT struct{ s *rumor.System }

func (u systemSUT) push(s step, offset int64) error {
	return pushStep(s, offset, u.s.Push, u.s.PushColumns)
}
func (u systemSUT) drain() error                               { return nil }
func (u systemSUT) count(name string) int64                    { return u.s.ResultCount(name) }
func (u systemSUT) add(name string, root *rumor.Logical) error { return u.s.AddQueryLive(name, root) }
func (u systemSUT) remove(name string) error                   { return u.s.RemoveQuery(name) }
func (u systemSUT) checkpoint(w io.Writer) error               { return u.s.Checkpoint(w) }
func (u systemSUT) close() error                               { return nil }

type shardedSUT struct {
	s       *rumor.ShardedSystem
	workers *pipeWorkers // nil for in-process shards
}

func (u shardedSUT) push(s step, offset int64) error {
	return pushStep(s, offset, u.s.Push, u.s.PushColumns)
}
func (u shardedSUT) drain() error                               { return u.s.Drain() }
func (u shardedSUT) count(name string) int64                    { return u.s.ResultCount(name) }
func (u shardedSUT) add(name string, root *rumor.Logical) error { return u.s.AddQueryLive(name, root) }
func (u shardedSUT) remove(name string) error                   { return u.s.RemoveQuery(name) }
func (u shardedSUT) checkpoint(w io.Writer) error               { return u.s.Checkpoint(w) }
func (u shardedSUT) close() error {
	err := u.s.Close()
	if u.workers != nil {
		u.workers.stop()
	}
	return err
}

// pipeWorkers runs shard workers in this process, each behind an
// in-memory listener, so the full cluster protocol — framing, CRC, the
// handshake and every RPC — runs without sockets.
type pipeWorkers struct {
	lis []*transport.PipeListener
	wg  sync.WaitGroup
}

func startPipeWorkers(n int, serve func(net.Listener) error) *pipeWorkers {
	pw := &pipeWorkers{}
	for i := 0; i < n; i++ {
		lis := transport.NewPipeListener()
		pw.lis = append(pw.lis, lis)
		pw.wg.Add(1)
		go func() {
			defer pw.wg.Done()
			_ = serve(lis) // returns the listener-closed error once stopped
		}()
	}
	return pw
}

func (pw *pipeWorkers) nodes() []rumor.ClusterNode {
	out := make([]rumor.ClusterNode, len(pw.lis))
	for i, l := range pw.lis {
		out[i] = rumor.ClusterNode{Dial: l.Dial}
	}
	return out
}

// stop closes the listeners and waits until every worker has returned.
func (pw *pipeWorkers) stop() {
	for _, l := range pw.lis {
		_ = l.Close() // idempotent, never fails
	}
	pw.wg.Wait()
}

// declare registers a workload's source streams through fn, a
// DeclareStream method.
func declare(streams []streamDecl, fn func(name, label string, attrs ...string) error) error {
	for _, s := range streams {
		if err := fn(s.name, "", s.attrs...); err != nil {
			return fmt.Errorf("declare %s: %w", s.name, err)
		}
	}
	return nil
}

type streamDecl struct {
	name  string
	attrs []string
}
