//! Human-readable rendering of collected telemetry.

use std::fmt::Write as _;

use crate::Telemetry;

/// Render counters and completed spans as an aligned plain-text
/// report. Sections with no data are omitted; a fully-empty report is
/// the empty string.
pub fn render_text(tel: &Telemetry) -> String {
    let mut out = String::new();

    let counters: Vec<_> = tel.registry().counters().collect();
    if !counters.is_empty() {
        out.push_str("== counters ==\n");
        let width = counters.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in counters {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
    }

    let spans = tel.spans();
    if !spans.is_empty() {
        out.push_str("== spans ==\n");
        for s in spans {
            let _ = writeln!(
                out,
                "  {:indent$}{}  [{} .. {}]  {} cycles",
                "",
                s.path.rsplit('/').next().unwrap_or(&s.path),
                s.start_cycle,
                s.end_cycle,
                s.cycles(),
                indent = 2 * s.depth,
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_telemetry_renders_empty() {
        let tel = Telemetry::enabled();
        assert_eq!(render_text(&tel), "");
    }

    #[test]
    fn sections_appear_when_populated() {
        let mut tel = Telemetry::enabled();
        tel.count("lut.l1.hit", 42);
        tel.set_cycle(10);
        tel.span_enter("run:fft");
        tel.set_cycle(90);
        tel.span_exit();

        let text = render_text(&tel);
        assert!(text.contains("== counters =="), "{text}");
        assert!(text.contains("lut.l1.hit"), "{text}");
        assert!(text.contains("== spans =="), "{text}");
        assert!(text.contains("run:fft"), "{text}");
        assert!(text.contains("80 cycles"), "{text}");
    }

    #[test]
    fn counters_render_name_sorted_whatever_the_insertion_order() {
        let mut a = Telemetry::enabled();
        a.count("z.last", 1);
        a.count("a.first", 1);
        let mut b = Telemetry::enabled();
        b.count("a.first", 1);
        b.count("z.last", 1);
        let text = render_text(&a);
        assert_eq!(text, render_text(&b));
        let first = text.find("a.first").unwrap();
        let last = text.find("z.last").unwrap();
        assert!(first < last, "{text}");
    }
}
