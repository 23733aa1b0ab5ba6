package kernel

import (
	"sync"
)

// inode is a regular file's storage. The file system is flat (path ->
// inode), which covers everything the benchmarks and the web server need.
type inode struct {
	mu   sync.RWMutex
	path string
	data []byte
}

func (ino *inode) size() int64 {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	return int64(len(ino.data))
}

func (ino *inode) readAt(p []byte, off int64) int {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if off >= int64(len(ino.data)) {
		return 0
	}
	return copy(p, ino.data[off:])
}

// availLocked clamps a transfer of count bytes at off to the bytes the file
// holds there, so no caller allocates (or promises a stream) bytes that
// cannot arrive. Callers hold ino.mu.
func (ino *inode) availLocked(off int64, count int) int {
	return int(min(int64(count), max(int64(len(ino.data))-off, 0)))
}

func (ino *inode) avail(off int64, count int) int {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	return ino.availLocked(off, count)
}

// read returns up to count bytes at off in a fresh, exactly-sized slice.
func (ino *inode) read(off int64, count int) []byte {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	buf := make([]byte, ino.availLocked(off, count))
	if len(buf) > 0 {
		copy(buf, ino.data[off:])
	}
	return buf
}

func (ino *inode) writeAt(p []byte, off int64) int {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(ino.data)) {
		grown := make([]byte, end)
		copy(grown, ino.data)
		ino.data = grown
	}
	copy(ino.data[off:], p)
	return len(p)
}

func (ino *inode) truncate(n int64) {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	if n <= int64(len(ino.data)) {
		ino.data = ino.data[:n]
		return
	}
	grown := make([]byte, n)
	copy(grown, ino.data)
	ino.data = grown
}

// fileSystem is the shared, in-memory file system: the "outside world" that
// all variants observe through the master's I/O.
type fileSystem struct {
	mu     sync.Mutex
	inodes map[string]*inode
}

func newFileSystem() *fileSystem {
	return &fileSystem{inodes: make(map[string]*inode)}
}

func (fs *fileSystem) lookup(path string) (*inode, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.inodes[path]
	return ino, ok
}

func (fs *fileSystem) create(path string, excl bool) (*inode, Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if ino, ok := fs.inodes[path]; ok {
		if excl {
			return nil, EEXIST
		}
		return ino, OK
	}
	ino := &inode{path: path}
	fs.inodes[path] = ino
	return ino, OK
}

func (fs *fileSystem) unlink(path string) Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.inodes[path]; !ok {
		return ENOENT
	}
	delete(fs.inodes, path)
	return OK
}

// fileObj adapts an inode to the object interface. It embeds the same
// uniform header pipes and sockets carry; file operations never block, so
// its poll readiness is constant. Access-mode enforcement does not live
// here: the open flags belong to the open file description (openFile),
// the state dup'd descriptors share, and the kernel's read/write handlers
// check them there.
type fileObj struct {
	hdr objHeader
	ino *inode
}

func (f *fileObj) header() *objHeader { return &f.hdr }

func (f *fileObj) close() Errno { return OK }

// poll: regular files are always readable and writable (reads and writes
// never block), matching Linux poll(2) on regular files.
func (f *fileObj) poll() uint32 { return PollIn | PollOut }
