#include "report.hh"

#include <cmath>

#include "core/metrics.hh"
#include "engine/engine.hh"
#include "engine/loop_key.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace gpsched::bench
{

MetricTable::MetricTable(std::string table_title,
                         std::vector<std::string> labels,
                         std::vector<std::string> values)
    : title(std::move(table_title)), labelColumns(std::move(labels)),
      valueColumns(std::move(values))
{
}

void
MetricTable::addRow(std::vector<std::string> row_labels,
                    std::vector<double> row_values)
{
    GPSCHED_ASSERT(row_labels.size() == labelColumns.size() &&
                       row_values.size() == valueColumns.size(),
                   "metric row arity mismatch in table '", title,
                   "'");
    rows.push_back(
        MetricRow{std::move(row_labels), std::move(row_values)});
}

namespace
{

/** Counts print as integers, everything else with 3 decimals. */
std::string
cell(double value)
{
    if (value == std::trunc(value) && std::fabs(value) < 1e15)
        return TextTable::num(value, 0);
    return TextTable::num(value, 3);
}

} // namespace

void
printReport(std::ostream &os, const Report &report)
{
    for (const FigurePanel &panel : report.panels) {
        TextTable table({"program", "unified", "URACAM", "Fixed", "GP"});
        for (const FigureRow &row : panel.rows) {
            if (&row == &panel.rows.back())
                table.addSeparator();
            table.addRow({row.program, TextTable::num(row.unified),
                          TextTable::num(row.uracam),
                          TextTable::num(row.fixed),
                          TextTable::num(row.gp)});
        }
        table.print(os, panel.title);
        const FigureRow &avg = panel.rows.back();
        os << "  GP vs URACAM: "
           << TextTable::num(ipcGainPercent(avg.gp, avg.uracam), 1)
           << "%   GP vs Fixed: "
           << TextTable::num(ipcGainPercent(avg.gp, avg.fixed), 1)
           << "%   GP vs unified: "
           << TextTable::num(ipcGainPercent(avg.gp, avg.unified), 1)
           << "%\n\n";
    }
    for (const MetricTable &metrics : report.tables) {
        std::vector<std::string> headers = metrics.labelColumns;
        headers.insert(headers.end(), metrics.valueColumns.begin(),
                       metrics.valueColumns.end());
        TextTable table(headers);
        for (const MetricRow &row : metrics.rows) {
            std::vector<std::string> cells = row.labels;
            for (double value : row.values)
                cells.push_back(cell(value));
            table.addRow(std::move(cells));
        }
        table.print(os, metrics.title);
    }
}

void
writeReportJson(std::ostream &os, const std::string &bench,
                const Report &report, const Engine &engine)
{
    if (report.json) {
        report.json(os);
        return;
    }
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", report.panels.empty() ? 1 : 2);
    json.member("bench", bench);
    if (!report.panels.empty()) {
        json.beginArray("panels");
        for (const FigurePanel &panel : report.panels) {
            json.beginObject();
            json.member("title", panel.title);
            json.beginArray("rows");
            for (const FigureRow &row : panel.rows) {
                json.beginObject();
                json.member("program", row.program);
                json.member("unified", row.unified);
                json.member("uracam", row.uracam);
                json.member("fixed", row.fixed);
                json.member("gp", row.gp);
                json.endObject();
            }
            json.endArray();
            json.beginObject("digests");
            for (const auto &[scheme, digest] : panel.digests)
                json.member(scheme, hexDigest(digest));
            json.endObject();
            json.endObject();
        }
    } else {
        json.beginArray("tables");
        for (const MetricTable &table : report.tables) {
            json.beginObject();
            json.member("title", table.title);
            json.beginArray("labelColumns");
            for (const std::string &column : table.labelColumns)
                json.element(column);
            json.endArray();
            json.beginArray("valueColumns");
            for (const std::string &column : table.valueColumns)
                json.element(column);
            json.endArray();
            json.beginArray("rows");
            for (const MetricRow &row : table.rows) {
                json.beginObject();
                json.beginArray("labels");
                for (const std::string &label : row.labels)
                    json.element(label);
                json.endArray();
                json.beginArray("values");
                for (double value : row.values)
                    json.element(value);
                json.endArray();
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
    }
    json.endArray();
    if (report.engineStats) {
        json.beginObject("engine");
        writeEngineJson(json, engine);
        json.endObject();
    }
    json.endObject();
}

} // namespace gpsched::bench
