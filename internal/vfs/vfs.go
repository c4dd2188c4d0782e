// Package vfs abstracts the handful of filesystem operations the
// durability paths (wal, journal checkpoints, columnar persistence)
// perform, so tests can inject faults — ENOSPC, short/torn writes,
// fsync errors, latency — at exact byte offsets. Production code uses
// OS, a thin passthrough to the os package; tests wrap it in Faulty.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the engine's durability paths need.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync commits the file's contents to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface the engine writes through.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Truncate(name string, size int64) error
}

// OS is the production FS: every call is the corresponding os.* call.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) Open(name string) (File, error)               { return os.Open(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// Default returns fsys if non-nil, else the real filesystem. Packages
// taking an optional FS in their Options call this once at open.
func Default(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}
