"""Fallback full-scale evidence: paper-exact E1 column at 32,768 ranks
(row-by-row logging), plus the complete table at 8,192 ranks."""
import time
from pathlib import Path

from repro.core.harness.experiment import Table2Config, run_table2
from repro.core.harness.report import render_table2
from repro.run.backends import run_scenario
from repro.run.scenario import Scenario

log = open(Path(__file__).with_name("plan_b.txt"), "w", buffering=1)

log.write("E1 at the paper-exact 32,768 ranks:\n")
for interval in (1000, 500, 250, 125):
    t0 = time.time()
    outcome = run_scenario(Scenario(ranks=32768, app="heat3d", interval=interval))
    if not outcome.completed:
        raise RuntimeError(f"E1 run at C={interval} did not complete")
    e1 = outcome.last_result.exit_time
    log.write(f"  C={interval:>4}: E1 = {e1:,.1f} s   (host {time.time()-t0:.0f} s)\n")

log.write("\nFull table at 8,192 ranks:\n")
t0 = time.time()
cells = run_table2(Table2Config(nranks=8192))
log.write(render_table2(cells) + "\n")
log.write(f"(host {time.time()-t0:.0f} s)\n")
log.close()
print("done")
