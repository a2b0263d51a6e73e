//! Traced run: counting allocator, probe enabled, layer probes added.

#[global_allocator]
static ALLOC: xsp_benchmark::alloc::CountingAlloc = xsp_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    xsp_benchmark::main(true)
}
