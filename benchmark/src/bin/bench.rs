//! The untraced binary: end-to-end numbers on the system allocator.

fn main() -> std::process::ExitCode {
    peering_benchmark::main_with(None)
}
