from repro.bench.report import main

raise SystemExit(main())
