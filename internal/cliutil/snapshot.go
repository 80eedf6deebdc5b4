package cliutil

import (
	"flag"

	"gpurel/internal/microfi"
)

// SnapshotFlags owns the -snap-stride/-snap-mb/-converge trio registered by
// Snapshots.
type SnapshotFlags struct {
	stride, mb *int64
	converge   *bool
}

// Snapshots registers the golden-run snapshot flags on fs. Call before
// fs.Parse; Spec reads them afterwards.
func Snapshots(fs *flag.FlagSet) *SnapshotFlags {
	return &SnapshotFlags{
		stride:   fs.Int64("snap-stride", 0, "golden-run snapshot stride in cycles for fork-and-join injection (0 = off, -1 = auto)"),
		mb:       fs.Int64("snap-mb", 0, "snapshot memory budget in MiB per golden run (0 = default 256, negative = unlimited)"),
		converge: fs.Bool("converge", false, "join faulty runs back to golden at the first matching checkpoint; implies -snap-stride -1 if unset"),
	}
}

// Spec returns the checkpoint spec the parsed flags ask for (disabled when
// none was set).
func (f *SnapshotFlags) Spec() microfi.CheckpointSpec {
	return microfi.NewCheckpointSpec(*f.stride, *f.mb, *f.converge)
}
