package exchange

import "repro/internal/model"

// Interface compliance.
var (
	_ model.Exchange = (*Min)(nil)
	_ model.Exchange = (*Basic)(nil)
	_ model.Exchange = (*FIP)(nil)

	_ model.State = MinState{}
	_ model.State = BasicState{}
	_ model.State = (*FIPState)(nil)

	// Every exchange is quotiented by agent relabeling in the model
	// checker: the full-information keys embed agent identities and are
	// rewritten, the min and basic tuples name no agent and map to
	// themselves.
	_ model.KeyPermuter = (*Min)(nil)
	_ model.KeyPermuter = (*Basic)(nil)
	_ model.KeyPermuter = (*FIP)(nil)

	_ model.Message = MinMsg{}
	_ model.Message = BasicMsg{}
	_ model.Message = FIPMsg{}
)
