package serve

// PolicyOf exposes the policy a daemon reacts with to this package's
// external tests.
func PolicyOf(d *Daemon) Policy { return d.policy }
