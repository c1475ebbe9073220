package pager

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam the durable store runs on. The default is
// OSFS; tests substitute MemFS to replay crash prefixes
// deterministically. Only the operations the store needs are modelled.
type FS interface {
	// MkdirAll ensures dir (and parents) exist.
	MkdirAll(dir string) error
	// Open opens an existing file for read/write; it fails if the file
	// does not exist.
	Open(name string) (File, error)
	// Create creates or truncates a file for read/write.
	Create(name string) (File, error)
	// Exists reports whether the file exists.
	Exists(name string) (bool, error)
	// Remove deletes a file; removing a missing file is an error.
	Remove(name string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// File is the random-access file handle the store uses.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current file length.
	Size() (int64, error)
	// Sync flushes written data to stable storage.
	Sync() error
	// Truncate sets the file length.
	Truncate(size int64) error
	// Close releases the handle.
	Close() error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Open(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Exists(name string) (bool, error) {
	_, err := os.Stat(name)
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// AtomicWrite replaces path with whatever write streams into the writer
// it is handed, using the temp-file → fsync → rename → fsync(dir)
// protocol, so a crash at any point — or an error from write — leaves
// the old content or the new, never a truncated mix. Every whole-file
// rewrite in the module goes through it: catalog.bin, database
// snapshots (the daemon's shutdown save, the shell's \save) and the
// cluster's shard-map manifest. The one exception is checkpoint WAL
// rotation (Store.rotateWALLocked), which runs the same sequence by
// hand because it must keep the new file's handle open as the live WAL.
func AtomicWrite(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(io.NewOffsetWriter(f, 0)); err != nil {
		err = fmt.Errorf("pager: write %s: %w", tmp, err)
	} else if err = f.Sync(); err != nil {
		err = fmt.Errorf("pager: sync %s: %w", tmp, err)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp) // best effort: the failure is what gets reported
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// AtomicWriteFile is AtomicWrite for content already in memory.
func AtomicWriteFile(fs FS, path string, data []byte) error {
	return AtomicWrite(fs, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
