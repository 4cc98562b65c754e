package main

import (
	"io/fs"
	"os"
	"sync"
	"time"

	"flowsched/internal/persist"
)

// countFS wraps persist.OSFS, counting fsyncs, time in fsync and bytes
// written and, while recording, keeping one span per call (name, start,
// end) so the traced run can attribute disk work to the op whose
// interval contains it.
type countFS struct {
	persist.OSFS
	mu        sync.Mutex
	recording bool
	spans     []fsSpan
	syncs     int64
	syncTime  time.Duration
	written   int64
}

type fsSpan struct {
	name       string
	start, end time.Time
}

func (c *countFS) note(name string, start time.Time, wrote int) {
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.written += int64(wrote)
	if name == "sync" {
		c.syncs++
		c.syncTime += end.Sub(start)
	}
	if c.recording {
		c.spans = append(c.spans, fsSpan{name: name, start: start, end: end})
	}
}

// snapshot returns the counters: fsyncs, time in Sync, bytes written.
func (c *countFS) snapshot() (syncs int64, syncTime time.Duration, written int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs, c.syncTime, c.written
}

func (c *countFS) record(on bool) {
	c.mu.Lock()
	c.recording = on
	c.mu.Unlock()
}

func (c *countFS) takeSpans() []fsSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.spans
	c.spans = nil
	return s
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	t := time.Now()
	f, err := c.OSFS.OpenFile(name, flag, perm)
	c.note("open", t, 0)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (persist.File, error) {
	t := time.Now()
	f, err := c.OSFS.Open(name)
	c.note("open", t, 0)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	b, err := c.OSFS.ReadFile(name)
	c.note("readfile", t, 0)
	return b, err
}

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) {
	t := time.Now()
	d, err := c.OSFS.ReadDir(name)
	c.note("readdir", t, 0)
	return d, err
}

func (c *countFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	err := c.OSFS.Rename(oldpath, newpath)
	c.note("rename", t, 0)
	return err
}

func (c *countFS) Remove(name string) error {
	t := time.Now()
	err := c.OSFS.Remove(name)
	c.note("remove", t, 0)
	return err
}

type countFile struct {
	persist.File
	fs *countFS
}

func (f *countFile) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Read(p)
	f.fs.note("read", t, 0)
	return n, err
}

func (f *countFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.note("write", t, n)
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.note("sync", t, 0)
	return err
}
