package store

// PerFileFlush clears f's syncfs anchor, so every barrier f issues from
// then on is one fsync per session file: the flush mode of a platform
// without syncfs. Call it before f's first append.
func PerFileFlush(f *File) {
	if f.anchor != nil {
		f.anchor.Close()
		f.anchor = nil
	}
}

// HasSyncfs reports whether f flushes with one syncfs barrier.
func HasSyncfs(f *File) bool { return f.anchor != nil }
