//! The timed binary: system allocator, tracing off unless asked.

fn main() -> std::process::ExitCode {
    photon_ledger::cli::main()
}
