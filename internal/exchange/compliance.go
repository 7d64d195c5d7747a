package exchange

import "repro/internal/model"

// Interface compliance.
var (
	_ model.Exchange = (*Min)(nil)
	_ model.Exchange = (*Basic)(nil)
	_ model.Exchange = (*Report)(nil)
	_ model.Exchange = (*FIP)(nil)

	_ model.State = MinState{}
	_ model.State = BasicState{}
	_ model.State = ReportState{}
	_ model.State = (*FIPState)(nil)

	// The exchanges the model checker quotients by agent relabeling: the
	// full-information keys embed agent identities and are rewritten, the
	// min and basic tuples name no agent and map to themselves. Ereport is
	// never model-checked and stays per-run.
	_ model.KeyPermuter = (*Min)(nil)
	_ model.KeyPermuter = (*Basic)(nil)
	_ model.KeyPermuter = (*FIP)(nil)

	_ model.Message = MinMsg{}
	_ model.Message = BasicMsg{}
	_ model.Message = ReportMsg{}
	_ model.Message = FIPMsg{}
)
