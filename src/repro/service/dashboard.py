"""The live dashboard page served at ``/`` by ``repro serve``.

One self-contained HTML document, no external assets: it subscribes to
``/api/stream`` (server-sent events) and renders the scheduler's rollup
— headline stat tiles, outcome proportions as single-hue bars with their
Wilson 95% CI whiskers, and the job table. Styling follows the repo's
data-viz conventions: role-based ink/surface tokens with a selected dark
mode, one categorical hue for the single measure (outcome rate), status
colors only on job-state chips and always beside their label, values
direct-labeled in ink rather than painted series colors.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro campaign service</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb; --page: #f9f9f7;
    --text-primary: #0b0b0b; --text-secondary: #52514e;
    --muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6;
    --status-good: #0ca30c; --status-warning: #fab219;
    --status-serious: #ec835a; --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19; --page: #0d0d0d;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
  body.viz-root {
    margin: 0; background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, sans-serif; padding: 24px;
  }
  h1 { font-size: 18px; font-weight: 600; margin: 0 0 4px; }
  .sub { color: var(--text-secondary); margin-bottom: 20px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 24px; }
  .tile {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 12px 16px; min-width: 130px;
  }
  .tile .label { color: var(--muted); font-size: 12px; }
  .tile .value { font-size: 26px; font-weight: 600; font-variant-numeric:
    tabular-nums; }
  section {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 16px; margin-bottom: 16px;
  }
  section h2 { font-size: 14px; font-weight: 600; margin: 0 0 12px; }
  .rate-row { display: grid; grid-template-columns: 90px 1fr 130px;
    align-items: center; gap: 10px; margin: 6px 0; }
  .rate-row .name { color: var(--text-secondary); }
  .rate-track { position: relative; height: 10px; background: var(--grid);
    border-radius: 4px; }
  .rate-fill { position: absolute; left: 0; top: 0; bottom: 0;
    background: var(--series-1); border-radius: 0 4px 4px 0; }
  .rate-ci { position: absolute; top: 4px; height: 2px;
    background: var(--text-secondary); opacity: 0.7; }
  .rate-val { color: var(--text-primary); font-variant-numeric:
    tabular-nums; text-align: right; font-size: 12px; }
  table { width: 100%; border-collapse: collapse; }
  th { text-align: left; color: var(--muted); font-weight: 500;
    font-size: 12px; border-bottom: 1px solid var(--baseline);
    padding: 4px 8px; }
  td { padding: 5px 8px; border-bottom: 1px solid var(--grid);
    font-variant-numeric: tabular-nums; }
  .chip { display: inline-block; padding: 1px 8px; border-radius: 999px;
    font-size: 12px; border: 1px solid var(--border); }
  .chip::before { content: "\\25CF\\00a0"; }
  .chip.done    { color: var(--status-good); }
  .chip.running { color: var(--series-1); }
  .chip.queued, .chip.suspended { color: var(--text-secondary); }
  .chip.failed  { color: var(--status-critical); }
  .chip.cancelled { color: var(--status-serious); }
  .foot { color: var(--muted); font-size: 12px; }
</style>
</head>
<body class="viz-root">
<h1>repro campaign service</h1>
<div class="sub">live MetricsRegistry rollups &mdash; outcome rates with
Wilson 95% CIs, throughput, and the job queue</div>
<div class="tiles">
  <div class="tile"><div class="label">trials completed</div>
    <div class="value" id="t-trials">&ndash;</div></div>
  <div class="tile"><div class="label">trials / sec (30s)</div>
    <div class="value" id="t-rate">&ndash;</div></div>
  <div class="tile"><div class="label">jobs running</div>
    <div class="value" id="t-running">&ndash;</div></div>
  <div class="tile"><div class="label">jobs queued</div>
    <div class="value" id="t-queued">&ndash;</div></div>
  <div class="tile"><div class="label">cached-verdict rate</div>
    <div class="value" id="t-cache">&ndash;</div></div>
</div>
<section>
  <h2>Outcome rates (of injected trials, Wilson 95% CI)</h2>
  <div id="rates"></div>
</section>
<section>
  <h2>Jobs</h2>
  <table>
    <thead><tr><th>job</th><th>state</th><th>progress</th>
      <th>store</th></tr></thead>
    <tbody id="jobs"></tbody>
  </table>
</section>
<div class="foot" id="foot">connecting&hellip;</div>
<script>
  "use strict";
  const pct = (x) => (100 * x).toFixed(2) + "%";
  function render(r) {
    const t = r.totals;
    document.getElementById("t-trials").textContent = t.trials;
    document.getElementById("t-rate").textContent =
      r.trials_per_sec.toFixed(2);
    document.getElementById("t-running").textContent = t.jobs_running;
    document.getElementById("t-queued").textContent = t.jobs_queued;
    document.getElementById("t-cache").textContent =
      pct(t.cached_verdict_rate);
    const rates = document.getElementById("rates");
    rates.replaceChildren();
    for (const [name, iv] of Object.entries(t.rates)) {
      const row = document.createElement("div");
      row.className = "rate-row";
      row.title = name + ": " + pct(iv.estimate) + "  CI [" +
        pct(iv.low) + ", " + pct(iv.high) + "]";
      const track =
        '<div class="rate-track">' +
        '<div class="rate-fill" style="width:' + (100 * iv.estimate) +
        '%"></div>' +
        '<div class="rate-ci" style="left:' + (100 * iv.low) +
        '%; width:' + Math.max(0.3, 100 * (iv.high - iv.low)) +
        '%"></div></div>';
      row.innerHTML = '<div class="name">' + name + '</div>' + track +
        '<div class="rate-val">' + pct(iv.estimate) + ' [' +
        pct(iv.low) + ', ' + pct(iv.high) + ']</div>';
      rates.appendChild(row);
    }
    const jobs = document.getElementById("jobs");
    jobs.replaceChildren();
    for (const j of r.jobs) {
      const tr = document.createElement("tr");
      tr.innerHTML =
        "<td>" + j.job_id + '</td><td><span class="chip ' + j.state +
        '">' + j.state + "</span></td><td>" + j.trials_done + " / " +
        j.total_trials + "</td><td>" + j.store + "</td>";
      jobs.appendChild(tr);
    }
    document.getElementById("foot").textContent =
      (r.draining ? "draining - " : "") + "live";
  }
  const source = new EventSource("/api/stream");
  source.onmessage = (e) => render(JSON.parse(e.data));
  source.onerror = () => {
    document.getElementById("foot").textContent =
      "stream disconnected - retrying";
  };
</script>
</body>
</html>
"""
