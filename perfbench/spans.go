package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer, or around a client-side step. Spans of one sector or result
// share ID; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; write dumps them when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// selfTime sums, per span name, each span's duration minus the part of
// it covered by its children (spans with the same ID naming it parent).
func (l *spanLog) selfTime() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		id   int64
		name string
	}
	child := map[key]int64{}
	for _, s := range l.spans {
		if s.Parent != "" {
			child[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for _, s := range l.spans {
		self := s.End - s.Start - child[key{s.ID, s.Name}]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// write stores the spans as JSON lines in path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close() //nolint:errcheck
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}
