//go:build !linux

package wal

import (
	"errors"
	"os"
)

// fallocateFile is unsupported off Linux: segments grow as they are written.
func fallocateFile(*os.File, int64, int64) error { return errors.ErrUnsupported }
