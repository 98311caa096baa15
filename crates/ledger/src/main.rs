use mr_ledger::host;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

fn main() {
    host::mark_process_start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mr_ledger::cli::main(&args));
}
