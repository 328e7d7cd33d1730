package wal

import (
	"os"
	"syscall"
)

// fallocateFile allocates n bytes of f from off with fallocate(2) mode 0:
// the blocks are reserved as unwritten extents, which read back as zeros,
// and the file size grows to cover them.
func fallocateFile(f *os.File, off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) {
		for {
			ferr = syscall.Fallocate(int(fd), 0, off, n)
			if ferr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return ferr
}
