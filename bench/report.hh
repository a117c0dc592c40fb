/**
 * @file
 * What one row of the evaluation (bench/eval.cc) produces, and the
 * two ways it leaves the program: one text printer for stdout and
 * one JSON writer for --json. A report holds Figure-2/3 panels or
 * metric tables; both JSON shapes are documented field by field in
 * docs/ARCHITECTURE.md ("Benches and the JSON report schemas"), and
 * tier-1 compares each deterministic report with its committed
 * golden under tests/golden/.
 */

#ifndef GPSCHED_BENCH_REPORT_HH
#define GPSCHED_BENCH_REPORT_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace gpsched
{
class Engine;
}

namespace gpsched::bench
{

/** Per-program IPC of the four evaluated bars. */
struct FigureRow
{
    std::string program;
    double unified = 0.0;
    double uracam = 0.0;
    double fixed = 0.0;
    double gp = 0.0;
};

/** One figure panel: a clustered machine and its four bars. */
struct FigurePanel
{
    std::string title;
    std::vector<FigureRow> rows; ///< per program + trailing average

    /** Per scheme ("unified", "uracam", "fixed", "gp"): every
     *  compiled loop of the suite folded through scheduleDigest
     *  (serialize/record.hh) in suite order. */
    std::vector<std::pair<std::string, std::uint64_t>> digests;
};

/** One labeled row of a MetricTable. */
struct MetricRow
{
    std::vector<std::string> labels;
    std::vector<double> values;
};

/** One table of a report: rows of string labels plus numbers. */
struct MetricTable
{
    std::string title;
    std::vector<std::string> labelColumns;
    std::vector<std::string> valueColumns;
    std::vector<MetricRow> rows;

    MetricTable(std::string title, std::vector<std::string> labels,
                std::vector<std::string> values);

    /** Appends a row (label/value arities must match the columns). */
    void addRow(std::vector<std::string> labels,
                std::vector<double> values);
};

/** The outcome of one experiment. */
struct Report
{
    Report(std::vector<MetricTable> metric_tables = {})
        : tables(std::move(metric_tables))
    {
    }

    /** Figure 2/3 panels; when present the JSON is the panels
     *  schema (version 2) and @ref tables is empty. */
    std::vector<FigurePanel> panels;

    /** Otherwise the metric-table schema (version 1). */
    std::vector<MetricTable> tables;

    /** Whether the JSON carries the engine statistics block. */
    bool engineStats = true;

    /** A row with its own JSON shape (table2_sched_time) writes it
     *  here instead; @ref tables still feed the text printer. */
    std::function<void(std::ostream &)> json;

    /** Process exit status the row asks for (a failed gate). */
    int status = 0;
};

/** Prints every panel (with its gain line) and every table. */
void printReport(std::ostream &os, const Report &report);

/**
 * Writes @p report as the JSON report named @p bench, with
 * @p engine's statistics when the report asks for them.
 */
void writeReportJson(std::ostream &os, const std::string &bench,
                     const Report &report, const Engine &engine);

} // namespace gpsched::bench

#endif // GPSCHED_BENCH_REPORT_HH
