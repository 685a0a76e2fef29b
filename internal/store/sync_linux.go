//go:build linux && (amd64 || arm64)

package store

import "syscall"

// syncFilesystem issues syncfs(2) on fd, flushing every dirty page and
// committing the journal of the filesystem that holds it — one barrier
// covering all session files at once, which is what lets a group-commit
// epoch cost one journal commit instead of one fsync per append. ok is
// false when the kernel lacks the syscall; the store then fsyncs each
// session file. The syscall number is arch-specific (the stdlib
// syscall table predates syncfs), so this path builds only where the
// number is pinned; elsewhere sync_other.go selects the fallback.
func syncFilesystem(fd uintptr) (ok bool, err error) {
	for {
		_, _, errno := syscall.Syscall(sysSyncfs, fd, 0, 0)
		switch errno {
		case 0:
			return true, nil
		case syscall.EINTR:
			continue
		case syscall.ENOSYS:
			return false, nil
		default:
			return true, errno
		}
	}
}
