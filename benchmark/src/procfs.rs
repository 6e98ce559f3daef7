//! Parsers for the two `/proc/self` files the benchmark reads. Reading
//! the files is the binary's job; the text-to-number step lives here so
//! it can be tested on captured samples.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI this repository builds for; reading it properly
/// needs `sysconf`, which needs libc.
pub const TICKS_PER_SECOND: u64 = 100;

/// User plus system CPU time of the process, in clock ticks, from the
/// text of `/proc/self/stat`. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Converts clock ticks to milliseconds.
pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * 1000.0 / TICKS_PER_SECOND as f64
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`, the peak resident
/// set), in kibibytes.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}
