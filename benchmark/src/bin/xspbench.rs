//! End-to-end run: system allocator, probe disabled.

fn main() -> std::process::ExitCode {
    xsp_benchmark::main(false)
}
